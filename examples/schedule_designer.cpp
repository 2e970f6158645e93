// schedule_designer: a small CLI around the library.
//
//   schedule_designer <n> <D> <alphaT> <alphaR> [--csv out.csv] [--print]
//
// Prints the candidate construction plans for (n, D), builds the best one,
// runs Construct(), verifies Requirement 3 (exact for small instances,
// sampled beyond), and reports frame length / duty cycle / throughput. With
// --csv it exports the per-slot schedule for a firmware image; with --print
// it dumps the slot table.
#include <cstdlib>
#include <iostream>
#include <string>

#include "combinatorics/params.hpp"
#include "core/builders.hpp"
#include "core/construct.hpp"
#include "core/requirements.hpp"
#include "core/throughput.hpp"
#include "util/table.hpp"

using namespace ttdc;

namespace {

int usage() {
  std::cerr << "usage: schedule_designer <n> <D> <alphaT> <alphaR> [--csv FILE] [--print]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 5) return usage();
  const std::size_t n = std::strtoull(argv[1], nullptr, 10);
  const std::size_t d = std::strtoull(argv[2], nullptr, 10);
  const std::size_t at = std::strtoull(argv[3], nullptr, 10);
  const std::size_t ar = std::strtoull(argv[4], nullptr, 10);
  std::string csv_path;
  bool print_slots = false;
  for (int i = 5; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--csv" && i + 1 < argc) {
      csv_path = argv[++i];
    } else if (arg == "--print") {
      print_slots = true;
    } else {
      return usage();
    }
  }
  if (n < 3 || d < 1 || d >= n || at < 1 || ar < 1 || at + ar > n) {
    std::cerr << "invalid parameters: need 3 <= n, 1 <= D < n, aT,aR >= 1, aT+aR <= n\n";
    return 2;
  }

  std::cout << "candidate plans for n=" << n << ", D=" << d << ":\n";
  for (const auto& plan : comb::enumerate_plans(n, d)) {
    std::cout << "  " << plan.to_string() << "\n";
  }
  const auto plan = comb::best_plan(n, d);
  std::cout << "using: " << plan.to_string() << "\n\n";

  const core::Schedule base = core::non_sleeping_from_family(comb::build_plan(plan, n));
  const core::Schedule duty = core::construct_duty_cycled(base, d, at, ar);

  // Verification budget: the exact checker enumerates n * C(n-1, D) sets.
  const double work = static_cast<double>(n) * util::binomial_ld(n - 1, d);
  if (work < 5e7) {
    if (const auto v = core::check_requirement3_exact(duty, d)) {
      std::cout << "REQUIREMENT 3 VIOLATED (library bug?): " << v->to_string() << "\n";
      return 1;
    }
    std::cout << "verified topology-transparent for N_" << n << "^" << d << " (exact)\n";
  } else {
    util::Xoshiro256 rng(1);
    if (const auto v = core::check_requirement3_sampled(duty, d, 200000, rng)) {
      std::cout << "REQUIREMENT 3 VIOLATED: " << v->to_string() << "\n";
      return 1;
    }
    std::cout << "verified topology-transparent (200k sampled neighborhoods; instance too "
                 "large for the exact checker)\n";
  }

  util::Table table({"metric", "non-sleeping <T>", "duty-cycled <T,R>"});
  table.set_precision(6);
  table.add_row({std::string("frame length"),
                 static_cast<std::int64_t>(base.frame_length()),
                 static_cast<std::int64_t>(duty.frame_length())});
  table.add_row({std::string("duty cycle"), base.duty_cycle(), duty.duty_cycle()});
  table.add_row({std::string("avg worst-case throughput"),
                 static_cast<double>(core::average_throughput(base, d)),
                 static_cast<double>(core::average_throughput(duty, d))});
  table.add_row(
      {std::string("Theorem 4 bound"), std::string("-"),
       static_cast<double>(core::throughput_upper_bound_alpha(n, d, at, ar))});
  std::cout << '\n' << table.to_text();

  if (print_slots) std::cout << '\n' << duty.to_string();

  if (!csv_path.empty()) {
    util::Table slots({"slot", "transmitters", "receivers"});
    for (std::size_t i = 0; i < duty.frame_length(); ++i) {
      slots.add_row({static_cast<std::int64_t>(i),
                     duty.transmitters(i).to_dense_bitset().to_string(),
                     duty.receivers(i).to_dense_bitset().to_string()});
    }
    if (!slots.write_csv(csv_path)) {
      std::cerr << "failed to write " << csv_path << "\n";
      return 1;
    }
    std::cout << "\nwrote per-slot schedule to " << csv_path << "\n";
  }
  return 0;
}
