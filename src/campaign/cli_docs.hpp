// The pbw-campaign CLI's self-description: one CommandDoc per subcommand,
// listing exactly the flags that command's code path reads.
//
// This table is the single source of truth three consumers share:
// `pbw-campaign --help` / `pbw-campaign <cmd> --help` print it, main()
// rejects flags not in it (a typo like --trails=5 is an error, not a
// silently-ignored no-op), and tests/test_campaign.cpp cross-checks it so
// the help text, docs/CAMPAIGN.md, and the actual parser cannot drift
// apart again.  The executor flags `run` and `table1` share are read here
// too, next to their docs.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "campaign/executor.hpp"
#include "campaign/trace_files.hpp"
#include "util/cli.hpp"

namespace pbw::campaign {

struct CommandDoc {
  std::string name;     ///< subcommand, e.g. "run"
  std::string usage;    ///< one-line usage, positional args included
  std::string summary;  ///< one-line description
  std::vector<util::FlagDoc> flags;  ///< every flag the command reads
};

/// All subcommands, in help order.
[[nodiscard]] const std::vector<CommandDoc>& command_docs();

/// The doc for `name`, or nullptr.
[[nodiscard]] const CommandDoc* find_command_doc(const std::string& name);

/// The bare flag name of a FlagDoc spelling ("trace-dir=<dir>" ->
/// "trace-dir", "trace[=<file>]" -> "trace").
[[nodiscard]] std::string flag_doc_name(const util::FlagDoc& doc);

/// Flags given on the command line that `doc` does not declare (--help is
/// always allowed).  Empty means the invocation is clean.
[[nodiscard]] std::vector<std::string> unknown_flags(const util::Cli& cli,
                                                     const CommandDoc& doc);

/// The executor flags of `run` and `table1` (--threads, --force,
/// --no-replay, --replay-check).  --threads takes 0 to 1024; a bad value
/// throws util::FlagError.
[[nodiscard]] ExecutorOptions executor_options(const util::Cli& cli);

/// The trace outputs of `run` and `table1`: --trace[=FILE] (a bare flag
/// means trace.jsonl), --trace-format and --trace-dir.  A format other
/// than jsonl, chrome or both, or --trace-format without --trace, throws
/// util::FlagError.  Opens no file.
[[nodiscard]] TraceFiles trace_files(const util::Cli& cli);

/// The global overview (every command + summary).
void print_overview(std::ostream& os);

/// One command's usage and aligned flag table.
void print_command_help(std::ostream& os, const CommandDoc& doc);

}  // namespace pbw::campaign
