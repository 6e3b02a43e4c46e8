//===- support/Flags.cpp - Minimal command-line flag parser -----------------===//

#include "support/Flags.h"

#include "support/StringUtils.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

using namespace igdt;

void FlagParser::addFlag(const std::string &Name, FlagKind Kind, void *Target,
                         const std::string &Help) {
  Flags.push_back({Name, Kind, Target, Help});
}

void FlagParser::add(const std::string &Name, bool *Out,
                     const std::string &Help) {
  addFlag(Name, FlagKind::Switch, Out, Help);
}

void FlagParser::add(const std::string &Name, unsigned *Out,
                     const std::string &Help) {
  addFlag(Name, FlagKind::Unsigned, Out, Help);
}

void FlagParser::add(const std::string &Name, std::uint64_t *Out,
                     const std::string &Help) {
  addFlag(Name, FlagKind::Uint64, Out, Help);
}

void FlagParser::add(const std::string &Name, double *Out,
                     const std::string &Help) {
  addFlag(Name, FlagKind::Double, Out, Help);
}

void FlagParser::add(const std::string &Name, std::string *Out,
                     const std::string &Help) {
  addFlag(Name, FlagKind::String, Out, Help);
}

void FlagParser::add(const std::string &Name, std::vector<std::string> *Out,
                     const std::string &Help) {
  addFlag(Name, FlagKind::StringList, Out, Help);
}

const FlagParser::Flag *FlagParser::find(const std::string &Name) const {
  for (const Flag &F : Flags)
    if (F.Name == Name)
      return &F;
  return nullptr;
}

std::string FlagParser::usage() const {
  std::string Out = formatString("usage: %s [flags]\n", Program.c_str());
  if (!Summary.empty())
    Out += Summary + "\n";
  for (const Flag &F : Flags) {
    const char *Value = F.Kind == FlagKind::Switch ? "" : " VALUE";
    Out += formatString("  --%s%s\n      %s\n", F.Name.c_str(), Value,
                        F.Help.c_str());
  }
  Out += "  --help\n      show this text\n";
  return Out;
}

bool FlagParser::parse(int Argc, char **Argv) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--help" || Arg == "-h") {
      HelpSeen = true;
      std::printf("%s", usage().c_str());
      return false;
    }
    if (Arg.rfind("--", 0) != 0) {
      Positional.push_back(std::move(Arg));
      continue;
    }

    std::string Name = Arg.substr(2);
    std::string Value;
    bool HasValue = false;
    std::size_t Eq = Name.find('=');
    if (Eq != std::string::npos) {
      Value = Name.substr(Eq + 1);
      Name = Name.substr(0, Eq);
      HasValue = true;
    }

    const Flag *F = find(Name);
    if (!F) {
      std::printf("%s: unknown flag --%s (try --help)\n", Program.c_str(),
                  Name.c_str());
      return false;
    }

    if (F->Kind == FlagKind::Switch) {
      if (HasValue) {
        std::printf("%s: --%s takes no value\n", Program.c_str(),
                    Name.c_str());
        return false;
      }
      *static_cast<bool *>(F->Target) = true;
      continue;
    }

    if (!HasValue) {
      if (I + 1 >= Argc) {
        std::printf("%s: --%s needs a value\n", Program.c_str(), Name.c_str());
        return false;
      }
      Value = Argv[++I];
    }

    char *End = nullptr;
    errno = 0;
    switch (F->Kind) {
    case FlagKind::Unsigned: {
      unsigned long V = std::strtoul(Value.c_str(), &End, 10);
      if (errno || End == Value.c_str() || *End) {
        std::printf("%s: --%s expects an unsigned integer, got '%s'\n",
                    Program.c_str(), Name.c_str(), Value.c_str());
        return false;
      }
      *static_cast<unsigned *>(F->Target) = static_cast<unsigned>(V);
      break;
    }
    case FlagKind::Uint64: {
      unsigned long long V = std::strtoull(Value.c_str(), &End, 10);
      if (errno || End == Value.c_str() || *End) {
        std::printf("%s: --%s expects an unsigned integer, got '%s'\n",
                    Program.c_str(), Name.c_str(), Value.c_str());
        return false;
      }
      *static_cast<std::uint64_t *>(F->Target) = V;
      break;
    }
    case FlagKind::Double: {
      double V = std::strtod(Value.c_str(), &End);
      if (errno || End == Value.c_str() || *End) {
        std::printf("%s: --%s expects a number, got '%s'\n", Program.c_str(),
                    Name.c_str(), Value.c_str());
        return false;
      }
      *static_cast<double *>(F->Target) = V;
      break;
    }
    case FlagKind::String:
      *static_cast<std::string *>(F->Target) = std::move(Value);
      break;
    case FlagKind::StringList:
      static_cast<std::vector<std::string> *>(F->Target)
          ->push_back(std::move(Value));
      break;
    case FlagKind::Switch:
      break; // handled above
    }
  }
  return true;
}
