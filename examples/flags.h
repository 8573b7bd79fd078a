// Command-line flags for the example programs. Each program lists its flags
// once; any other argument prints the usage (generated from that list) and
// exits with status 2, so a mistyped or retired flag fails instead of being
// ignored.
//
//   const ahg::examples::Flags flags(argc, argv, {{"--seed", "S"},
//                                                 {"--verbose", nullptr}});
//   const int seed = std::atoi(flags.Value("--seed", "17"));
#ifndef AUTOHENS_EXAMPLES_FLAGS_H_
#define AUTOHENS_EXAMPLES_FLAGS_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <vector>

namespace ahg::examples {

struct Flag {
  const char* name;  // e.g. "--seed"
  // Placeholder for the flag's value in the usage ("S"); null for a switch,
  // which takes no value.
  const char* value;
};

class Flags {
 public:
  Flags(int argc, char** argv, std::initializer_list<Flag> known)
      : known_(known) {
    for (int i = 1; i < argc; ++i) {
      const Flag* flag = Find(argv[i]);
      if (flag == nullptr) {
        Fail(argv[0], "unknown argument", argv[i]);
      }
      const char* value = "";
      if (flag->value != nullptr) {
        if (i + 1 == argc) Fail(argv[0], "missing value for", argv[i]);
        value = argv[++i];
      }
      // The first occurrence of a repeated flag wins.
      if (!Has(flag->name)) seen_.push_back({flag->name, value});
    }
  }

  // The value given for `name`, or `fallback` when it is absent.
  const char* Value(const char* name, const char* fallback) const {
    for (const Flag& f : seen_) {
      if (std::strcmp(f.name, name) == 0) return f.value;
    }
    return fallback;
  }

  bool Has(const char* name) const {
    return Value(name, nullptr) != nullptr;
  }

 private:
  const Flag* Find(const char* arg) const {
    for (const Flag& f : known_) {
      if (std::strcmp(f.name, arg) == 0) return &f;
    }
    return nullptr;
  }

  [[noreturn]] void Fail(const char* program, const char* what,
                         const char* arg) const {
    std::fprintf(stderr, "%s: %s %s\nusage: %s", program, what, arg,
                 program);
    for (const Flag& f : known_) {
      if (f.value != nullptr) {
        std::fprintf(stderr, " [%s %s]", f.name, f.value);
      } else {
        std::fprintf(stderr, " [%s]", f.name);
      }
    }
    std::fprintf(stderr, "\n");
    std::exit(2);
  }

  std::vector<Flag> known_;
  // Flags given on the command line, with their values ("" for a switch).
  std::vector<Flag> seen_;
};

}  // namespace ahg::examples

#endif  // AUTOHENS_EXAMPLES_FLAGS_H_
