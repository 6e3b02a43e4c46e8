//===- support/Flags.h - Minimal command-line flag parser -------------------===//
//
// Part of the IGDT project: interpreter-guided differential JIT testing.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A tiny declarative flag parser shared by the bench binaries and the
/// examples, replacing the hand-rolled argv loops each of them grew.
/// Flags bind directly to caller-owned variables:
///
/// \code
///   unsigned Jobs = 1;
///   FlagParser Flags("table2_differences");
///   Flags.add("jobs", &Jobs, "worker threads (0 = hardware)");
///   if (!Flags.parse(Argc, Argv))
///     return Flags.helpRequested() ? 0 : 2;
/// \endcode
///
/// Supported syntax: `--name value`, `--name=value`, bare `--name` for
/// bool switches, and `--help`. Unknown flags fail the parse with a
/// diagnostic on stdout. Repeatable string flags append to a vector.
///
//===----------------------------------------------------------------------===//

#ifndef IGDT_SUPPORT_FLAGS_H
#define IGDT_SUPPORT_FLAGS_H

#include <cstdint>
#include <string>
#include <vector>

namespace igdt {

/// Declarative argv parser; see the file comment for the syntax.
class FlagParser {
public:
  explicit FlagParser(std::string Program, std::string Summary = "")
      : Program(std::move(Program)), Summary(std::move(Summary)) {}

  /// \name Flag registration (caller keeps ownership of the target)
  /// @{
  void add(const std::string &Name, bool *Out, const std::string &Help);
  void add(const std::string &Name, unsigned *Out, const std::string &Help);
  void add(const std::string &Name, std::uint64_t *Out,
           const std::string &Help);
  void add(const std::string &Name, double *Out, const std::string &Help);
  void add(const std::string &Name, std::string *Out, const std::string &Help);
  /// Repeatable: every occurrence appends one element.
  void add(const std::string &Name, std::vector<std::string> *Out,
           const std::string &Help);
  /// @}

  /// Parses \p Argv. Returns false on `--help` (helpRequested() true,
  /// usage printed) or on a bad/unknown flag (diagnostic printed).
  bool parse(int Argc, char **Argv);

  /// Arguments that were not flags, in order.
  const std::vector<std::string> &positional() const { return Positional; }

  bool helpRequested() const { return HelpSeen; }

  /// The usage text `--help` prints.
  std::string usage() const;

private:
  enum class FlagKind : std::uint8_t {
    Switch,
    Unsigned,
    Uint64,
    Double,
    String,
    StringList
  };

  struct Flag {
    std::string Name;
    FlagKind Kind = FlagKind::Switch;
    void *Target = nullptr;
    std::string Help;
  };

  void addFlag(const std::string &Name, FlagKind Kind, void *Target,
               const std::string &Help);
  const Flag *find(const std::string &Name) const;

  std::string Program;
  std::string Summary;
  std::vector<Flag> Flags;
  std::vector<std::string> Positional;
  bool HelpSeen = false;
};

} // namespace igdt

#endif // IGDT_SUPPORT_FLAGS_H
