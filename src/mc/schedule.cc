#include "src/mc/schedule.h"

#include <cctype>
#include <cstdlib>
#include <map>

#include "src/base/str.h"

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

  bool GetString(const std::string& key, std::string& out) const {
    auto it = strings_.find(key);
    if (it == strings_.end()) return false;
    out = it->second;
    return true;
  }
  bool GetInt(const std::string& key, int64_t& out) const {
    auto it = ints_.find(key);
    if (it == ints_.end()) return false;
    out = it->second;
    return true;
  }
  bool GetBool(const std::string& key, bool& out) const {
    auto it = bools_.find(key);
    if (it == bools_.end()) return false;
    out = it->second;
    return true;
  }
  bool GetIntArray(const std::string& key, std::vector<int64_t>& out) const {
    auto it = arrays_.find(key);
    if (it == arrays_.end()) return false;
    out = it->second;
    return true;
  }

 private:
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
    if (pos_ >= text_.size()) return false;
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
  out += std::string(",\n  \"break_batch_bound\": ") + (break_batch_bound ? "true" : "false");
  out += StrFormat(",\n  \"mailbox_capacity\": %u", mailbox_capacity);
  out += ",\n  \"backend\": ";
  AppendEscaped(out, backend);
  out += StrFormat(",\n  \"deque_capacity\": %u", deque_capacity);
  out += std::string(",\n  \"broken_steal_order\": ") + (broken_steal_order ? "true" : "false");
  // Forkjoin-only fields are omitted for the other harnesses so their
  // committed goldens stay byte-stable across the schema growth (FromJson
  // defaults the fields when absent).
  if (harness == "forkjoin") {
    out += StrFormat(",\n  \"tree_depth\": %u", tree_depth);
    out += StrFormat(",\n  \"fanout\": %u", fanout);
    out += std::string(",\n  \"broken_join_counter\": ") +
           (broken_join_counter ? "true" : "false");
    out += std::string(",\n  \"broken_termination_order\": ") +
           (broken_termination_order ? "true" : "false");
    // Written only when set, so the forkjoin goldens older than the knob
    // stay byte-stable.
    if (broken_node_recycle) {
      out += ",\n  \"broken_node_recycle\": true";
    }
  }
  if (harness == "ingress") {
    out += std::string(",\n  \"broken_wakeup_gate\": ") +
           (broken_wakeup_gate ? "true" : "false");
  }
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
  if (!scanner.GetString("harness", schedule.harness) ||
      !scanner.GetString("policy", schedule.policy)) {
    return std::nullopt;
  }
  if (!scanner.GetIntArray("initial_loads", schedule.initial_loads)) {
    return std::nullopt;
  }
  int64_t attempts = 0;
  if (scanner.GetInt("attempts_per_worker", attempts)) {
    schedule.attempts_per_worker = static_cast<uint32_t>(attempts);
  }
  int64_t seed = 1;
  if (scanner.GetInt("seed", seed)) {
    schedule.seed = static_cast<uint64_t>(seed);
  }
  scanner.GetBool("recheck", schedule.recheck);
  int64_t max_batch = 0;
  if (scanner.GetInt("max_steal_batch", max_batch) && max_batch >= 1) {
    schedule.max_steal_batch = static_cast<uint32_t>(max_batch);
  }
  scanner.GetBool("break_batch_bound", schedule.break_batch_bound);
  int64_t mailbox_capacity = 0;
  if (scanner.GetInt("mailbox_capacity", mailbox_capacity) && mailbox_capacity >= 1) {
    schedule.mailbox_capacity = static_cast<uint32_t>(mailbox_capacity);
  }
  scanner.GetString("backend", schedule.backend);
  int64_t deque_capacity = 0;
  if (scanner.GetInt("deque_capacity", deque_capacity) && deque_capacity >= 2) {
    schedule.deque_capacity = static_cast<uint32_t>(deque_capacity);
  }
  scanner.GetBool("broken_steal_order", schedule.broken_steal_order);
  int64_t tree_depth = 0;
  if (scanner.GetInt("tree_depth", tree_depth) && tree_depth >= 1) {
    schedule.tree_depth = static_cast<uint32_t>(tree_depth);
  }
  int64_t fanout = 0;
  if (scanner.GetInt("fanout", fanout) && fanout >= 1) {
    schedule.fanout = static_cast<uint32_t>(fanout);
  }
  scanner.GetBool("broken_join_counter", schedule.broken_join_counter);
  scanner.GetBool("broken_termination_order", schedule.broken_termination_order);
  scanner.GetBool("broken_node_recycle", schedule.broken_node_recycle);
  scanner.GetBool("broken_wakeup_gate", schedule.broken_wakeup_gate);
  scanner.GetString("property", schedule.property);
  scanner.GetString("note", schedule.note);
  std::vector<int64_t> choices;
  if (!scanner.GetIntArray("choices", choices)) {
    return std::nullopt;
  }
  schedule.choices.assign(choices.begin(), choices.end());
  return schedule;
}

}  // namespace optsched::mc
