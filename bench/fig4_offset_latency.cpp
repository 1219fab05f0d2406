// FIG4 — "Work request duration with different offsets" (paper Figure 4).
// One-SGE sends of 8/16/32/64-byte buffers whose start address is shifted
// by `offset` inside the page; duration in TBR ticks.
//
// Paper shape targets: duration varies with offset by up to ~8 %, with
// the DMA path optimized for certain offsets (e.g. 64): buffers that stay
// inside one bus line / burst window transfer fastest.

// Optional arguments:
//   --short       every 32nd offset instead of every 8th (CI smoke mode)
//   --json=PATH   also write the measured table as JSON

#include <array>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "bench_common.hpp"

using namespace ibp;

namespace {

constexpr std::uint32_t kSizes[] = {8, 16, 32, 64};

struct Row {
  std::uint32_t offset;
  std::array<double, std::size(kSizes)> ticks;  // TBR ticks per size
};

void write_json(const std::string& path, const std::string& platform,
                std::uint32_t step, const std::vector<Row>& rows,
                double spread_pct) {
  std::ofstream out(path);
  out << "{\n  \"bench\": \"fig4_offset_latency\",\n  \"platform\": \""
      << platform << "\",\n  \"offset_step\": " << step
      << ",\n  \"sizes\": [";
  for (std::size_t c = 0; c < std::size(kSizes); ++c)
    out << (c == 0 ? "" : ", ") << kSizes[c];
  out << "],\n  \"points\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    out << "    {\"offset\": " << rows[i].offset << ", \"ticks\": [";
    for (std::size_t c = 0; c < rows[i].ticks.size(); ++c)
      out << (c == 0 ? "" : ", ") << rows[i].ticks[c];
    out << "]}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"spread_64b_pct\": " << spread_pct << "\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  bool short_mode = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--short") == 0) {
      short_mode = true;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      std::fprintf(stderr,
                   "usage: fig4_offset_latency [--short] [--json=PATH]\n");
      return 2;
    }
  }
  const std::uint32_t step = short_mode ? 32 : 8;

  const platform::PlatformConfig plat = platform::systemp_gx_ehca();
  const cpu::TimeBase tbr(plat.tbr_hz);

  std::printf("FIG4: work request duration vs buffer offset, platform=%s\n\n",
              plat.name.c_str());

  TextTable t({"offset", "8 B", "16 B", "32 B", "64 B"});

  std::vector<Row> rows;
  double worst = 0.0, best = 1e18;
  for (std::uint32_t offset = 0; offset <= 256; offset += step) {
    Row row{offset, {}};
    for (std::size_t c = 0; c < row.ticks.size(); ++c) {
      bench::WrParams p;
      p.sge_size = kSizes[c];
      p.offset = offset;
      const bench::WrTiming wt = bench::measure_send(plat, p);
      row.ticks[c] = static_cast<double>(tbr.to_ticks(wt.total()));
      if (kSizes[c] == 64) {
        worst = std::max(worst, row.ticks[c]);
        best = std::min(best, row.ticks[c]);
      }
    }
    t.add_row(static_cast<std::uint64_t>(offset), row.ticks[0], row.ticks[1],
              row.ticks[2], row.ticks[3]);
    rows.push_back(row);
  }
  t.print();

  const double spread_pct = (worst / best - 1.0) * 100.0;
  std::printf("\n64 B buffers: offset-induced spread = %.1f %% "
              "(paper: up to ~8 %%, optimum at aligned offsets)\n",
              spread_pct);
  if (!json_path.empty())
    write_json(json_path, plat.name, step, rows, spread_pct);
  return 0;
}
