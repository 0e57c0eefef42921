#include "src/mc/schedule.h"

#include <cctype>
#include <cstdlib>
#include <map>
#include <set>

#include "src/base/str.h"
#include "src/mc/modes.h"

namespace optsched::mc {

namespace {

void AppendEscaped(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  out += '"';
}

// Minimal scanner for the flat JSON object ToJson emits: string, integer,
// boolean and integer-array values keyed by string names. No nesting.
class FlatJsonScanner {
 public:
  explicit FlatJsonScanner(const std::string& text) : text_(text) {}

  bool Parse() {
    SkipWs();
    if (!Consume('{')) return false;
    SkipWs();
    if (Consume('}')) return true;
    for (;;) {
      std::string key;
      if (!ParseString(key)) return false;
      SkipWs();
      if (!Consume(':')) return false;
      SkipWs();
      if (!ParseValue(key)) return false;
      SkipWs();
      if (Consume(',')) {
        SkipWs();
        continue;
      }
      return Consume('}');
    }
  }

  // Each getter marks its key read when the key holds a value of its type.
  bool GetString(const std::string& key, std::string& out) { return Get(strings_, key, out); }
  bool GetInt(const std::string& key, int64_t& out) { return Get(ints_, key, out); }
  bool GetBool(const std::string& key, bool& out) { return Get(bools_, key, out); }
  bool GetIntArray(const std::string& key, std::vector<int64_t>& out) {
    return Get(arrays_, key, out);
  }
  // An integer of at least `min` into `out`; a smaller one keeps the default.
  bool GetUint(const std::string& key, int64_t min, uint32_t& out) {
    int64_t value = 0;
    if (!GetInt(key, value)) return false;
    if (value >= min) out = static_cast<uint32_t>(value);
    return true;
  }
  // True when every parsed key was read: no unknown or mistyped key.
  bool AllRead() const { return read_.size() == keys_.size(); }

 private:
  template <typename T>
  bool Get(const std::map<std::string, T>& values, const std::string& key, T& out) {
    auto it = values.find(key);
    if (it == values.end()) return false;
    out = it->second;
    read_.insert(key);
    return true;
  }
  void SkipWs() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool ParseString(std::string& out) {
    if (!Consume('"')) return false;
    out.clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\' && pos_ < text_.size()) {
        char e = text_[pos_++];
        out += e == 'n' ? '\n' : e;
      } else {
        out += c;
      }
    }
    return Consume('"');
  }
  bool ParseInt(int64_t& out) {
    size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) ++pos_;
    while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    if (pos_ == start) return false;
    out = std::strtoll(text_.substr(start, pos_ - start).c_str(), nullptr, 10);
    return true;
  }
  bool ParseValue(const std::string& key) {
    if (pos_ >= text_.size() || !keys_.insert(key).second) return false;
    const char c = text_[pos_];
    if (c == '"') {
      std::string s;
      if (!ParseString(s)) return false;
      strings_[key] = s;
      return true;
    }
    if (c == '[') {
      ++pos_;
      std::vector<int64_t> values;
      SkipWs();
      if (Consume(']')) {
        arrays_[key] = values;
        return true;
      }
      for (;;) {
        SkipWs();
        int64_t v = 0;
        if (!ParseInt(v)) return false;
        values.push_back(v);
        SkipWs();
        if (Consume(',')) continue;
        if (Consume(']')) {
          arrays_[key] = values;
          return true;
        }
        return false;
      }
    }
    if (text_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      bools_[key] = true;
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      bools_[key] = false;
      return true;
    }
    int64_t v = 0;
    if (!ParseInt(v)) return false;
    ints_[key] = v;
    return true;
  }

  const std::string& text_;
  size_t pos_ = 0;
  std::map<std::string, std::string> strings_;
  std::map<std::string, int64_t> ints_;
  std::map<std::string, bool> bools_;
  std::map<std::string, std::vector<int64_t>> arrays_;
  std::set<std::string> keys_;
  std::set<std::string> read_;
};

void AppendIntArray(std::string& out, const std::vector<int64_t>& values) {
  out += '[';
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    out += StrFormat("%lld", static_cast<long long>(values[i]));
  }
  out += ']';
}

}  // namespace

std::string Schedule::ToJson() const {
  std::string out = "{\n  \"version\": 1,\n  \"harness\": ";
  AppendEscaped(out, harness);
  out += ",\n  \"policy\": ";
  AppendEscaped(out, policy);
  out += ",\n  \"initial_loads\": ";
  AppendIntArray(out, initial_loads);
  out += StrFormat(",\n  \"attempts_per_worker\": %u", attempts_per_worker);
  out += StrFormat(",\n  \"seed\": %llu", static_cast<unsigned long long>(seed));
  out += std::string(",\n  \"recheck\": ") + (recheck ? "true" : "false");
  out += StrFormat(",\n  \"max_steal_batch\": %u", max_steal_batch);
  out += StrFormat(",\n  \"mailbox_capacity\": %u", mailbox_capacity);
  out += ",\n  \"backend\": ";
  AppendEscaped(out, backend);
  out += StrFormat(",\n  \"deque_capacity\": %u", deque_capacity);
  out += StrFormat(",\n  \"tree_depth\": %u", tree_depth);
  out += StrFormat(",\n  \"fanout\": %u", fanout);
  out += ",\n  \"fault\": ";
  AppendEscaped(out, fault);
  out += ",\n  \"property\": ";
  AppendEscaped(out, property);
  out += ",\n  \"note\": ";
  AppendEscaped(out, note);
  out += ",\n  \"choices\": ";
  std::vector<int64_t> wide(choices.begin(), choices.end());
  AppendIntArray(out, wide);
  out += "\n}\n";
  return out;
}

std::optional<Schedule> Schedule::FromJson(const std::string& json) {
  FlatJsonScanner scanner(json);
  if (!scanner.Parse()) {
    return std::nullopt;
  }
  Schedule schedule;
  int64_t version = 1;
  scanner.GetInt("version", version);
  if (version != 1 || !scanner.GetString("harness", schedule.harness) ||
      FindMode(schedule.harness) == nullptr || !scanner.GetString("policy", schedule.policy) ||
      !scanner.GetIntArray("initial_loads", schedule.initial_loads)) {
    return std::nullopt;
  }
  scanner.GetUint("attempts_per_worker", 0, schedule.attempts_per_worker);
  int64_t seed = 1;
  if (scanner.GetInt("seed", seed)) {
    schedule.seed = static_cast<uint64_t>(seed);
  }
  scanner.GetBool("recheck", schedule.recheck);
  scanner.GetUint("max_steal_batch", 1, schedule.max_steal_batch);
  scanner.GetUint("mailbox_capacity", 1, schedule.mailbox_capacity);
  scanner.GetString("backend", schedule.backend);
  scanner.GetUint("deque_capacity", 2, schedule.deque_capacity);
  scanner.GetUint("tree_depth", 1, schedule.tree_depth);
  scanner.GetUint("fanout", 1, schedule.fanout);
  if (scanner.GetString("fault", schedule.fault) && !schedule.fault.empty() &&
      FindFault(schedule.fault) == nullptr) {
    return std::nullopt;
  }
  scanner.GetString("property", schedule.property);
  scanner.GetString("note", schedule.note);
  std::vector<int64_t> choices;
  if (!scanner.GetIntArray("choices", choices) || !scanner.AllRead()) {
    return std::nullopt;
  }
  schedule.choices.assign(choices.begin(), choices.end());
  return schedule;
}

}  // namespace optsched::mc
