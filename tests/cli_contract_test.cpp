/// The command-line contract of the shipped tools (tools/exit_codes.hpp):
/// exit 0 = success, 1 = runtime failure (diagnostics on stderr),
/// 2 = usage error. Enforced two ways: statically, by grepping the tool
/// sources (via SPMAP_SOURCE_DIR) for convention violations, and
/// behaviorally, by running every built binary (via SPMAP_CONTRACT_BINARIES)
/// against bad invocations and checking the codes.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

const std::vector<std::string>& tool_sources() {
  static const std::vector<std::string> sources = {
      std::string(SPMAP_SOURCE_DIR) + "/tools/spmap_cli.cpp",
      std::string(SPMAP_SOURCE_DIR) + "/tools/spmap_loadgen.cpp",
      std::string(SPMAP_SOURCE_DIR) + "/bench/perf_report_main.cpp",
  };
  return sources;
}

std::size_t count_occurrences(const std::string& haystack,
                              const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

// ---- static source audit ---------------------------------------------------

TEST(CliContractSource, ToolsUseTheNamedExitCodes) {
  for (const std::string& path : tool_sources()) {
    const std::string source = read_file(path);
    EXPECT_NE(source.find("#include \"exit_codes.hpp\""), std::string::npos)
        << path << " must include tools/exit_codes.hpp";
    EXPECT_NE(source.find("kExitUsage"), std::string::npos) << path;
    EXPECT_NE(source.find("kExitFailure"), std::string::npos) << path;
  }
}

TEST(CliContractSource, NoBareNumericExitCodes) {
  // `return 0;` at function scope is fine in helpers, but the magic
  // numbers 1 and 2 as exit codes must not appear: every non-zero exit
  // goes through the named constants so the contract is greppable.
  for (const std::string& path : tool_sources()) {
    const std::string source = read_file(path);
    EXPECT_EQ(count_occurrences(source, "return 1;"), 0u)
        << path << " returns a bare 1 somewhere";
    EXPECT_EQ(count_occurrences(source, "return 2;"), 0u)
        << path << " returns a bare 2 somewhere";
    EXPECT_EQ(count_occurrences(source, "exit(1)"), 0u) << path;
    EXPECT_EQ(count_occurrences(source, "exit(2)"), 0u) << path;
  }
}

TEST(CliContractSource, DiagnosticsGoToStderr) {
  // Error reporting is `fprintf(stderr, "<tool>: ...")`; the tool-name
  // prefix must never show up in a stdout printf.
  for (const std::string& path : tool_sources()) {
    const std::string source = read_file(path);
    EXPECT_GT(count_occurrences(source, "fprintf(stderr,"), 0u) << path;
    EXPECT_EQ(count_occurrences(source, "printf(\"spmap_cli:"), 0u) << path;
    EXPECT_EQ(count_occurrences(source, "printf(\"spmap_loadgen:"), 0u)
        << path;
  }
}

// ---- behavioral audit of the built binaries --------------------------------

/// Runs a tool with stdout/stderr redirected; returns the exit code.
int run_tool(const std::string& binary, const std::string& arguments,
             const std::string& stdout_file, const std::string& stderr_file) {
  const std::string command = binary + " " + arguments + " >" + stdout_file +
                              " 2>" + stderr_file;
  const int raw = std::system(command.c_str());
  EXPECT_TRUE(WIFEXITED(raw)) << command;
  return WEXITSTATUS(raw);
}

struct CliCase {
  const char* name;
  std::string binary;
  std::string arguments;
  int expected_exit;
};

/// The contract cases of every binary this build produced: CMake passes
/// their paths in SPMAP_CONTRACT_BINARIES, and the two tools with cases of
/// their own in SPMAP_CLI_PATH and SPMAP_LOADGEN_PATH.
std::vector<CliCase> cli_cases() {
  std::vector<CliCase> cases;
  // Every binary: an unknown flag is a usage error.
  std::istringstream binaries(SPMAP_CONTRACT_BINARIES);
  for (std::string binary; std::getline(binaries, binary, '|');) {
    cases.push_back({"unknown_flag", binary, "--bogus", 2});
  }
#ifdef SPMAP_CLI_PATH
  const std::string cli = SPMAP_CLI_PATH;
  const std::string graph = ::testing::TempDir() + "/cli_contract_graph.json";
  cases.insert(
      cases.end(),
      {
          {"no_arguments", cli, "", 2},
          {"unknown_subcommand", cli, "frobnicate", 2},
          {"unknown_subcommand_flag", cli, "generate --bogus 1", 2},
          {"malformed_flag_value", cli, "generate --tasks many", 2},
          {"sweep_unknown_flag", cli, "sweep --bogus", 2},
          {"sweep_without_scenario", cli, "sweep", 2},
          {"daemon_without_listen", cli, "daemon", 2},
          {"evaluate_without_in", cli, "evaluate", 2},
          {"decompose_without_in", cli, "decompose", 2},
          {"map_without_in", cli, "map", 2},
          {"import_without_wf", cli, "import", 2},
          {"missing_input_file", cli, "evaluate --in /nonexistent.json", 1},
          {"daemon_bad_endpoint", cli, "daemon --listen bogus^spec", 1},
          // The daemon has no session-resume window to configure.
          {"daemon_resume_window_unknown", cli,
           "daemon --listen bogus^spec --resume-window-s 5", 2},
          {"generate_ok", cli,
           "generate --type sp --tasks 6 --seed 1 --out " + graph, 0},
      });
#endif
#ifdef SPMAP_LOADGEN_PATH
  const std::string loadgen = SPMAP_LOADGEN_PATH;
  cases.insert(cases.end(),
               {
                   {"loadgen_without_endpoint", loadgen, "", 2},
                   // The load generator has one (closed) loop.
                   {"loadgen_open_loop_unknown", loadgen,
                    "--endpoint unix:/nonexistent.sock --open-loop", 2},
               });
#endif
  return cases;
}

TEST(CliContractBinary, ExitCodesMatchTheContract) {
  const std::string tmp = ::testing::TempDir();
  for (const CliCase& c : cli_cases()) {
    const std::string out = tmp + "/cli_contract_stdout";
    const std::string err = tmp + "/cli_contract_stderr";
    // Diagnostics are prefixed with the tool name.
    const std::string prefix =
        c.binary.substr(c.binary.find_last_of('/') + 1) + ":";
    EXPECT_EQ(run_tool(c.binary, c.arguments, out, err), c.expected_exit)
        << c.name << " (" << c.binary << ")";
    if (c.expected_exit != 0) {
      EXPECT_FALSE(read_file(err).empty())
          << c.name << ": non-zero exit must explain itself on stderr";
      // Diagnostics never leak to stdout.
      EXPECT_EQ(read_file(out).find(prefix), std::string::npos) << c.name;
    } else {
      // Progress notes on stderr are fine; error-prefixed lines are not.
      EXPECT_EQ(read_file(err).find(prefix), std::string::npos) << c.name;
    }
  }
}

}  // namespace
