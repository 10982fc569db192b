// Golden tests for the `gpufi` command line: each case runs the built
// binary and compares its stdout and exit code against a file under
// tests/golden/cli/. Campaign cases pin the human rendering of every
// offline command; usage-error cases pin that a bad flag, name or value
// exits 2 with the usage text (shared golden `usage.txt`). Every case
// passes --db and --models into gpufi_data/, so no case ever builds a
// syndrome database or trains a network.
//
// Regenerate a golden by running its case's command with stdout redirected
// to the file, e.g. for rtl_transient:
//   gpufi rtl FFMA fp32 --faults 60 --seed 7 --db gpufi_data/syndromes.db
//       --models gpufi_data > tests/golden/cli/rtl_transient.txt
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

namespace {

struct Case {
  const char* name;
  int exit_code;
  const char* golden;  ///< file under tests/golden/cli/
  std::vector<std::string> args;
};

void PrintTo(const Case& c, std::ostream* os) { *os << c.name; }

/// "--db DATA/syndromes.db --models DATA" appended to every case.
std::vector<std::string> with_data(std::vector<std::string> args) {
  const std::string data = GPUFI_TEST_DATA_DIR;
  args.insert(args.end(), {"--db", data + "/syndromes.db", "--models", data});
  return args;
}

const std::vector<Case>& cases() {
  static const std::vector<Case> all = {
      // Campaigns (exit 0).
      {"rtl_transient", 0, "rtl_transient.txt",
       {"rtl", "FFMA", "fp32", "--faults", "60", "--seed", "7"}},
      {"rtl_stuck1", 0, "rtl_stuck1.txt",
       {"rtl", "FFMA", "fp32", "--faults", "60", "--seed", "7",
        "--fault-model", "stuck1"}},
      {"rtl_int_range_l_jobs2", 0, "rtl_int_range_l_jobs2.txt",
       {"rtl", "IADD", "int", "--faults", "40", "--seed", "5", "--range", "L",
        "--jobs", "2"}},
      {"tmxm_sched", 0, "tmxm_sched.txt",
       {"tmxm", "sched", "--faults", "48", "--seed", "3"}},
      {"tmxm_pipe_max", 0, "tmxm_pipe_max.txt",
       {"tmxm", "pipe", "--tile", "max", "--faults", "32", "--seed", "2"}},
      {"sw_bitflip", 0, "sw_bitflip.txt",
       {"sw", "mxm", "bitflip", "--injections", "40", "--seed", "11"}},
      {"sw_doublebit", 0, "sw_doublebit.txt",
       {"sw", "mxm", "doublebit", "--injections", "40", "--seed", "11"}},
      {"sw_syndrome", 0, "sw_syndrome.txt",
       {"sw", "mxm", "syndrome", "--injections", "40", "--seed", "11"}},
      {"sw_warp", 0, "sw_warp.txt",
       {"sw", "mxm", "warp", "--injections", "40", "--seed", "11"}},
      {"sw_sticky", 0, "sw_sticky.txt",
       {"sw", "mxm", "sticky", "--injections", "40", "--seed", "11"}},
      {"sw_plan", 0, "sw_plan.txt",
       {"sw", "mxm", "bitflip", "--injections", "60", "--seed", "11",
        "--plan", "target_err=0.2,min_trials=8"}},
      {"report_text", 0, "report_text.txt",
       {"report", "FFMA", "fp32", "--faults", "60", "--seed", "7"}},
      {"report_json", 0, "report_json.txt",
       {"report", "FFMA", "fp32", "--faults", "60", "--seed", "7", "--json"}},
      {"report_all", 0, "report_all.txt",
       {"report", "FFMA", "all", "--faults", "24", "--seed", "7"}},
      {"report_no_module", 0, "report_no_module.txt",
       {"report", "FADD", "--faults", "12", "--seed", "3"}},
      {"cnn_lenet_bitflip", 0, "cnn_lenet_bitflip.txt",
       {"cnn", "lenet", "bitflip", "--injections", "4"}},
      // Runtime failure (exit 1): no daemon listens on the socket.
      {"submit_unreachable", 1, "empty.txt",
       {"submit", "rtl", "FFMA", "fp32", "--faults", "8", "--socket",
        "no_such_dir/gpufi.sock"}},
      {"report_served_all", 1, "empty.txt",
       {"report", "FFMA", "all", "--socket", "no_such_dir/gpufi.sock"}},
      // Usage errors (exit 2).
      {"unknown_command", 2, "usage.txt", {"frobnicate"}},
      {"unknown_opcode", 2, "usage.txt", {"rtl", "FOO", "fp32"}},
      {"unknown_module", 2, "usage.txt", {"rtl", "FFMA", "nosuch"}},
      {"unknown_site", 2, "usage.txt", {"tmxm", "nosuch"}},
      {"unknown_app", 2, "usage.txt", {"sw", "doom", "bitflip"}},
      {"unknown_sw_model", 2, "usage.txt", {"sw", "mxm", "gamma"}},
      {"unknown_net", 2, "usage.txt", {"cnn", "alexnet", "bitflip"}},
      {"unknown_cnn_model", 2, "usage.txt", {"cnn", "lenet", "warp"}},
      {"unknown_report_module", 2, "usage.txt", {"report", "FFMA", "nosuch"}},
      {"unknown_submit_kind", 2, "usage.txt", {"submit", "bogus"}},
      {"unknown_option", 2, "usage.txt",
       {"rtl", "FFMA", "fp32", "--bogus", "1"}},
      {"bad_number", 2, "usage.txt",
       {"sw", "mxm", "bitflip", "--injections", "12x"}},
      {"tmxm_bad_range", 2, "usage.txt", {"tmxm", "sched", "--range", "Q"}},
      {"rtl_bad_tile", 2, "usage.txt",
       {"rtl", "FFMA", "fp32", "--tile", "square"}},
      // The reference RTL levels are test oracles, not a CLI option.
      {"rtl_bad_accel", 2, "usage.txt",
       {"rtl", "FFMA", "fp32", "--accel", "full"}},
      // Progress runs at one automatic cadence; there is no flag for it.
      {"rtl_progress_interval", 2, "usage.txt",
       {"rtl", "FFMA", "fp32", "--progress-interval", "5"}},
      {"sw_bad_plan", 2, "usage.txt",
       {"sw", "mxm", "bitflip", "--plan", "target_err=2"}},
      {"rtl_fault_model_list", 2, "usage.txt",
       {"rtl", "FFMA", "fp32", "--fault-model", "transient,stuck1"}},
      // A report does not fan out over the fabric.
      {"submit_report_workers", 2, "usage.txt",
       {"submit", "report", "FFMA", "fp32", "--workers", "2"}},
      {"submit_plan_on_rtl", 2, "usage.txt",
       {"submit", "rtl", "FFMA", "fp32", "--plan", "target_err=0.1"}},
      // --plan is a software-campaign flag on every command.
      {"rtl_plan", 2, "usage.txt",
       {"rtl", "FFMA", "fp32", "--faults", "10", "--plan", "target_err=0.1"}},
      // Numbers that do not fit their field are usage errors.
      {"rtl_jobs_overflow", 2, "usage.txt",
       {"rtl", "FFMA", "fp32", "--faults", "10", "--jobs", "4294967297"}},
      // Signs and NaN are outside the number grammar, never wrapped or
      // compared away.
      {"rtl_negative_faults", 2, "usage.txt",
       {"rtl", "FFMA", "fp32", "--faults", "-1"}},
      {"sw_plus_injections", 2, "usage.txt",
       {"sw", "mxm", "bitflip", "--injections", "+40"}},
      {"sw_plan_nan", 2, "usage.txt",
       {"sw", "mxm", "bitflip", "--plan", "target_err=nan"}},
  };
  return all;
}

std::string read_golden(const std::string& name) {
  const std::string path = std::string(GPUFI_TEST_GOLDEN_DIR) + "/" + name;
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.is_open()) << "missing golden file " << path;
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

std::string shell_quote(const std::string& s) {
  std::string q = "'";
  for (const char c : s) {
    if (c == '\'')
      q += "'\\''";
    else
      q += c;
  }
  return q + "'";
}

struct CliRun {
  std::string out;
  int exit_code = -1;
};

/// Runs the CLI with `args`, capturing stdout (stderr is discarded: it
/// carries the progress meter, whose rates are wall-clock dependent).
CliRun run_cli(const std::vector<std::string>& args) {
  std::string cmd = shell_quote(GPUFI_CLI_PATH);
  for (const auto& a : args) {
    cmd += ' ';
    cmd += shell_quote(a);
  }
  cmd += " 2>/dev/null";
  CliRun r;
  FILE* p = ::popen(cmd.c_str(), "r");
  if (p == nullptr) return r;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, p)) > 0) r.out.append(buf, n);
  const int status = ::pclose(p);
  if (WIFEXITED(status)) r.exit_code = WEXITSTATUS(status);
  return r;
}

class Cli : public ::testing::TestWithParam<Case> {};

TEST_P(Cli, StdoutAndExitCodeMatchGolden) {
  const Case& c = GetParam();
  const CliRun r = run_cli(with_data(c.args));
  EXPECT_EQ(r.exit_code, c.exit_code);
  EXPECT_EQ(r.out, read_golden(c.golden));
}

INSTANTIATE_TEST_SUITE_P(Golden, Cli, ::testing::ValuesIn(cases()),
                         [](const ::testing::TestParamInfo<Case>& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
