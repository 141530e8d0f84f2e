// Command-line interface for the dragonviz tool.
#pragma once

#include <string>
#include <vector>

namespace dv::app {

/// One subcommand's option surface: the keys run_cli accepts for it
/// (without the leading "--"; --profile is accepted by every command and
/// not listed) and its block of the --help text.
struct CommandOptions {
  std::string name;
  std::vector<std::string> keys;
  std::string help;
};

/// Every subcommand, in --help order.
std::vector<CommandOptions> command_options();

/// Entry point; returns the process exit code. Throws dv::Error on
/// invalid usage (caught in main), including any option the subcommand
/// does not accept — checked before the subcommand does any work.
int run_cli(int argc, char** argv);

}  // namespace dv::app
