#include "core/cli.hpp"

#include <cstdio>
#include <cstdlib>

#include "common/number.hpp"

namespace cms::core::cli {

namespace {

/// What a value of `f` looks like, for errors and usage.
std::string expected(const Flag& f) {
  switch (f.kind) {
    case Kind::kSwitch: return "no value";
    case Kind::kUnsigned:
      if (f.max == std::numeric_limits<std::uint64_t>::max())
        return "plain decimal >= " + std::to_string(f.min);
      return "plain decimal in [" + std::to_string(f.min) + ", " +
             std::to_string(f.max) + "]";
    case Kind::kMillis: return "finite ms in [0, " + std::to_string(f.max) + "]";
    case Kind::kChoice: return f.choices;
    case Kind::kString: return "text";
  }
  return "?";
}

/// Validate `text` against `f` into `v`; false when it does not conform.
template <class Value>
bool convert(const Flag& f, std::string_view text, Value& v) {
  switch (f.kind) {
    case Kind::kUnsigned:
      return parse_decimal(text, v.count, f.max) == NumberParse::kOk &&
             v.count >= f.min;
    case Kind::kMillis:
      return parse_nonneg_double(text, v.millis,
                                 static_cast<double>(f.max)) ==
             NumberParse::kOk;
    case Kind::kChoice: {
      std::string_view rest = f.choices;
      for (std::size_t k = 0;; ++k) {
        const std::string_view opt = rest.substr(0, rest.find('|'));
        // "tcp://*" takes any text after the prefix, but not none.
        if (opt.ends_with('*') ? text.size() >= opt.size() &&
                                     text.starts_with(opt.substr(
                                         0, opt.size() - 1))
                               : text == opt) {
          v.choice = k;
          return true;
        }
        if (opt.size() == rest.size()) return false;
        rest.remove_prefix(opt.size() + 1);
      }
    }
    case Kind::kSwitch:
    case Kind::kString: return true;
  }
  return false;
}

}  // namespace

const Args::Value& Args::find(std::string_view name) const {
  for (const Value& v : values_)
    if (v.flag->name == name) return v;
  throw std::logic_error(std::string(name) + " is not in the flag table");
}

const Args::Value& Args::at(std::string_view name, Kind kind) const {
  const Value& v = find(name);
  // A choice's text is its value as given (store_choice reads tcp:// so).
  if (v.flag->kind != kind &&
      !(kind == Kind::kString && v.flag->kind == Kind::kChoice))
    throw std::logic_error(std::string(name) + " is another kind of flag");
  return v;
}

Args parse(int argc, const char* const* argv,
           std::initializer_list<const Flag*> tables) {
  Args args;
  for (const Flag* table : tables)
    for (const Flag* f = table; f->name != nullptr; ++f) {
      for (const Args::Value& seen : args.values_)
        if (std::string_view(seen.flag->name) == f->name)
          throw std::logic_error(std::string(f->name) + " is in two tables");
      Args::Value v{f, f->def};
      if (f->kind != Kind::kString && !convert(*f, v.text, v))
        throw std::logic_error(std::string(f->name) + " has a bad default");
      args.values_.push_back(std::move(v));
    }

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help") {
      args.help_ = true;
      break;
    }
    const std::string name(arg.substr(0, arg.find('=')));
    if (!name.starts_with("--"))
      throw std::runtime_error("unexpected argument '" + name + "'");
    Args::Value* v = nullptr;
    for (Args::Value& cand : args.values_)
      if (cand.flag->name == name) v = &cand;
    if (v == nullptr) throw std::runtime_error("unknown flag '" + name + "'");
    if (v->given)
      throw std::runtime_error("repeated flag '" + name +
                               "' (each may appear once)");
    v->given = true;
    const Flag& f = *v->flag;
    if (f.kind == Kind::kSwitch) {
      if (name.size() != arg.size())
        throw std::runtime_error(name + " takes no value");
      continue;
    }
    v->text.clear();
    if (name.size() != arg.size())
      v->text = arg.substr(name.size() + 1);
    else if (i + 1 < argc && !std::string_view(argv[i + 1]).starts_with("--"))
      v->text = argv[++i];
    if (v->text.empty())
      throw std::runtime_error(name + " needs a value (" + expected(f) + ")");
    if (!convert(f, v->text, *v))
      throw std::runtime_error("bad " + name + " value '" + v->text + "' (" +
                               expected(f) + ")");
  }
  return args;
}

std::string usage(std::string_view prog,
                  std::initializer_list<const Flag*> tables) {
  prog.remove_prefix(prog.find_last_of('/') + 1);  // npos + 1 == 0
  std::string out = "usage: " + std::string(prog) + " [flags]\n";
  for (const Flag* table : tables)
    for (const Flag* f = table; f->name != nullptr; ++f) {
      out += std::string("  ") + f->name;
      if (f->kind != Kind::kSwitch) out += " <" + expected(*f) + ">";
      if (f->kind != Kind::kSwitch && *f->def != '\0')
        out += std::string("  [default ") + f->def + "]";
      out += std::string("\n      ") + f->help + "\n";
    }
  return out + "  --help\n      print this usage and exit\n";
}

Args parse_or_exit(int argc, const char* const* argv,
                   std::initializer_list<const Flag*> tables) {
  const std::string_view prog = argc > 0 ? argv[0] : "";
  try {
    Args args = parse(argc, argv, tables);
    if (!args.help()) return args;
    std::fputs(usage(prog, tables).c_str(), stdout);
    std::exit(0);
  } catch (const std::runtime_error& e) {
    std::fprintf(stderr, "error: %s\n%s", e.what(),
                 usage(prog, tables).c_str());
    std::exit(2);
  }
}

StoreChoice store_choice(const Args& args) {
  // Choice 3 of --store-l2 is the tcp:// prefix: a read-write far tier.
  const auto l2 = args.choice<std::size_t>("--store-l2");
  std::string target = args.text("--store-l2-dir");
  if (target.empty() && l2 == 3) target = args.text("--store-l2");
  return {args.text("--trace-dir"), args.choice<TraceMode>("--trace"),
          std::move(target),
          l2 == 3 ? StoreL2Mode::kReadWrite : static_cast<StoreL2Mode>(l2)};
}

}  // namespace cms::core::cli
