#include "support/report.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "support/error.hpp"

namespace hpamg {

// ------------------------------------------------------------------------
// JsonWriter
// ------------------------------------------------------------------------

namespace {

void append_escaped(std::string& out, std::string_view s) {
  out.push_back('"');
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(char(c));  // UTF-8 bytes pass through
        }
    }
  }
  out.push_back('"');
}

/// Shortest decimal form that round-trips through strtod.
void append_double(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.15g", v);
  if (std::strtod(buf, nullptr) != v)
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

}  // namespace

void JsonWriter::before_value() {
  if (key_pending_) {
    key_pending_ = false;
    return;
  }
  require(stack_.empty() ? out_.empty()
                         : stack_.back() == Frame::kArray,
          "JsonWriter: value needs a key inside an object");
  if (!stack_.empty()) {
    if (has_items_.back()) out_.push_back(',');
    has_items_.back() = true;
  }
}

JsonWriter& JsonWriter::begin_object() {
  before_value();
  out_.push_back('{');
  stack_.push_back(Frame::kObject);
  has_items_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  require(!stack_.empty() && stack_.back() == Frame::kObject &&
              !key_pending_,
          "JsonWriter: unbalanced end_object");
  out_.push_back('}');
  stack_.pop_back();
  has_items_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  before_value();
  out_.push_back('[');
  stack_.push_back(Frame::kArray);
  has_items_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  require(!stack_.empty() && stack_.back() == Frame::kArray,
          "JsonWriter: unbalanced end_array");
  out_.push_back(']');
  stack_.pop_back();
  has_items_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  require(!stack_.empty() && stack_.back() == Frame::kObject &&
              !key_pending_,
          "JsonWriter: key outside an object");
  if (has_items_.back()) out_.push_back(',');
  has_items_.back() = true;
  append_escaped(out_, k);
  out_.push_back(':');
  key_pending_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  before_value();
  append_escaped(out_, v);
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  before_value();
  out_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  before_value();
  if (!std::isfinite(v)) {
    out_ += "null";  // NaN/Inf policy: JSON has no non-finite numbers
  } else {
    append_double(out_, v);
  }
  return *this;
}

JsonWriter& JsonWriter::write_int(long long v) {
  before_value();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::write_uint(unsigned long long v) {
  before_value();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::null() {
  before_value();
  out_ += "null";
  return *this;
}

const std::string& JsonWriter::str() const {
  require(stack_.empty() && !key_pending_ && !out_.empty(),
          "JsonWriter: document incomplete");
  return out_;
}

// ------------------------------------------------------------------------
// Parser
// ------------------------------------------------------------------------

const JsonValue* JsonValue::find(std::string_view k) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [key, val] : members)
    if (key == k) return &val;
  return nullptr;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view src) : src_(src) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    require(pos_ == src_.size(), "json_parse: trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument("json_parse: " + what + " at offset " +
                                std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < src_.size() &&
           (src_[pos_] == ' ' || src_[pos_] == '\t' || src_[pos_] == '\n' ||
            src_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= src_.size()) fail("unexpected end of input");
    return src_[pos_];
  }

  void expect(char c) {
    if (pos_ >= src_.size() || src_[pos_] != c)
      fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (src_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    const char c = peek();
    JsonValue v;
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') {
      v.kind = JsonValue::Kind::kString;
      v.text = parse_string();
      return v;
    }
    if (consume_literal("null")) {
      // The writer's non-finite policy (JsonWriter::value(double)) turns
      // NaN/Inf into `null`; carrying NaN in `number` makes the double
      // round-trip lossless for consumers that read numeric fields without
      // checking kind (the node still reports is_null(), not is_number()).
      v.number = std::numeric_limits<double>::quiet_NaN();
      return v;
    }
    if (consume_literal("true")) {
      v.kind = JsonValue::Kind::kBool;
      v.boolean = true;
      return v;
    }
    if (consume_literal("false")) {
      v.kind = JsonValue::Kind::kBool;
      return v;
    }
    return parse_number();
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.members.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.items.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  unsigned parse_hex4() {
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      if (pos_ >= src_.size()) fail("truncated \\u escape");
      const char c = src_[pos_++];
      code <<= 4;
      if (c >= '0' && c <= '9') code |= unsigned(c - '0');
      else if (c >= 'a' && c <= 'f') code |= unsigned(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') code |= unsigned(c - 'A' + 10);
      else fail("bad \\u escape digit");
    }
    return code;
  }

  static void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out.push_back(char(cp));
    } else if (cp < 0x800) {
      out.push_back(char(0xc0 | (cp >> 6)));
      out.push_back(char(0x80 | (cp & 0x3f)));
    } else if (cp < 0x10000) {
      out.push_back(char(0xe0 | (cp >> 12)));
      out.push_back(char(0x80 | ((cp >> 6) & 0x3f)));
      out.push_back(char(0x80 | (cp & 0x3f)));
    } else {
      out.push_back(char(0xf0 | (cp >> 18)));
      out.push_back(char(0x80 | ((cp >> 12) & 0x3f)));
      out.push_back(char(0x80 | ((cp >> 6) & 0x3f)));
      out.push_back(char(0x80 | (cp & 0x3f)));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= src_.size()) fail("unterminated string");
      const char c = src_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        if ((unsigned char)c < 0x20) fail("raw control character in string");
        out.push_back(c);
        continue;
      }
      if (pos_ >= src_.size()) fail("truncated escape");
      const char e = src_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          unsigned cp = parse_hex4();
          if (cp >= 0xd800 && cp <= 0xdbff) {  // high surrogate
            if (pos_ + 1 < src_.size() && src_[pos_] == '\\' &&
                src_[pos_ + 1] == 'u') {
              pos_ += 2;
              const unsigned lo = parse_hex4();
              require(lo >= 0xdc00 && lo <= 0xdfff,
                      "json_parse: unpaired surrogate");
              cp = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
            } else {
              fail("unpaired surrogate");
            }
          }
          append_utf8(out, cp);
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (pos_ < src_.size() && src_[pos_] == '-') ++pos_;
    while (pos_ < src_.size() &&
           (std::isdigit((unsigned char)src_[pos_]) || src_[pos_] == '.' ||
            src_[pos_] == 'e' || src_[pos_] == 'E' || src_[pos_] == '+' ||
            src_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) fail("expected a value");
    const std::string token(src_.substr(start, pos_ - start));
    // RFC 8259: no leading zeros ("01") and no bare sign/dot.
    {
      std::size_t p = token[0] == '-' ? 1 : 0;
      if (p >= token.size() || !std::isdigit((unsigned char)token[p]))
        fail("malformed number");
      if (token[p] == '0' && p + 1 < token.size() &&
          std::isdigit((unsigned char)token[p + 1]))
        fail("malformed number");
    }
    char* end = nullptr;
    const double d = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) fail("malformed number");
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    v.number = d;
    v.text = token;  // keep the lexeme for exact integer consumers
    return v;
  }

  std::string_view src_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue json_parse(std::string_view src) {
  return Parser(src).parse_document();
}

// ------------------------------------------------------------------------
// SolveReport
// ------------------------------------------------------------------------

namespace {

void write_phases(JsonWriter& w, const PhaseTimes& pt) {
  w.begin_object();
  for (const auto& [name, sec] : pt.all()) w.kv(name, sec);
  w.end_object();
}

void write_counters(JsonWriter& w, const WorkCounters& c) {
  w.begin_object();
  w.kv("flops", c.flops);
  w.kv("bytes_read", c.bytes_read);
  w.kv("bytes_written", c.bytes_written);
  w.kv("branches", c.branches);
  w.kv("hash_probes", c.hash_probes);
  w.end_object();
}

void write_comm(JsonWriter& w, const simmpi::CommStats& s) {
  w.begin_object();
  w.kv("messages_sent", s.messages_sent);
  w.kv("bytes_sent", s.bytes_sent);
  w.kv("allreduces", s.allreduces);
  w.kv("request_setups", s.request_setups);
  w.kv("persistent_starts", s.persistent_starts);
  // Traffic split by destination rank; zero-traffic peers are elided so the
  // array stays short at scale.
  w.key("per_peer").begin_array();
  for (std::size_t p = 0; p < s.per_peer.size(); ++p) {
    if (s.per_peer[p].messages == 0 && s.per_peer[p].bytes == 0) continue;
    w.begin_object();
    w.kv("peer", std::uint64_t(p));
    w.kv("messages", s.per_peer[p].messages);
    w.kv("bytes", s.per_peer[p].bytes);
    // Message-size histogram (trailing zero buckets trimmed; bucket k >= 1
    // covers [2^(k-1), 2^k) bytes). Omitted when never recorded, so
    // hand-built CommStats keep the original three-field entry.
    int last = -1;
    for (int b = 0; b < simmpi::kMsgSizeBuckets; ++b)
      if (s.per_peer[p].size_hist[b] > 0) last = b;
    if (last >= 0) {
      w.key("size_hist").begin_array();
      for (int b = 0; b <= last; ++b) w.value(s.per_peer[p].size_hist[b]);
      w.end_array();
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

}  // namespace

void SolveReport::write_json(JsonWriter& w) const {
  w.begin_object();
  w.kv("solver", solver);
  w.kv("variant", variant);

  w.key("hierarchy").begin_object();
  w.kv("num_levels", long(num_levels));
  w.kv("operator_complexity", operator_complexity);
  w.kv("grid_complexity", grid_complexity);
  w.key("levels").begin_array();
  for (const LevelReportEntry& l : levels) {
    w.begin_object();
    w.kv("level", long(l.level));
    w.kv("rows", (long long)l.rows);
    w.kv("nnz", (long long)l.nnz);
    w.kv("nnz_per_row", l.nnz_per_row);
    w.kv("coarse", (long long)l.coarse);
    w.kv("interp_nnz", (long long)l.interp_nnz);
    w.kv("operator_bytes", l.operator_bytes);
    w.kv("interp_bytes", l.interp_bytes);
    w.kv("smoother_bytes", l.smoother_bytes);
    w.kv("workspace_bytes", l.workspace_bytes);
    w.end_object();
  }
  w.end_array();
  w.end_object();

  w.key("phases").begin_object();
  w.key("setup");
  write_phases(w, setup_phases);
  w.key("solve");
  write_phases(w, solve_phases);
  w.end_object();

  w.key("counters").begin_object();
  w.key("setup");
  write_counters(w, setup_work);
  w.key("solve");
  write_counters(w, solve_work);
  w.end_object();

  if (has_comm) {
    w.key("comm").begin_object();
    w.key("setup");
    write_comm(w, setup_comm);
    w.key("solve");
    write_comm(w, solve_comm);
    w.end_object();
  }

  if (has_memory) {
    w.key("memory").begin_object();
    w.kv("setup_bytes", memory.setup_bytes);
    w.kv("solve_bytes", memory.solve_bytes);
    w.kv("peak_rss_bytes", memory.peak_rss_bytes);
    w.end_object();
  }

  if (!roofline.empty()) {
    w.key("roofline").begin_array();
    for (const RooflineEntry& e : roofline) {
      w.begin_object();
      w.kv("kernel", e.kernel);
      w.kv("level", long(e.level));
      w.kv("calls", e.calls);
      w.kv("seconds", e.seconds);
      w.kv("flops", e.flops);
      w.kv("bytes", e.bytes);
      w.kv("achieved_bw_bytes_per_s", e.achieved_bw_bytes_per_s);
      w.kv("modeled_seconds", e.modeled_seconds);
      w.kv("bw_fraction", e.bw_fraction);
      w.kv("efficiency", e.efficiency);
      w.end_object();
    }
    w.end_array();
  }

  if (!iterations.empty()) {
    w.key("iterations").begin_array();
    for (const IterationReportEntry& e : iterations) {
      w.begin_object();
      w.kv("iteration", long(e.iteration));
      w.kv("relres", e.relres);
      w.kv("conv_factor", e.conv_factor);
      w.kv("seconds", e.seconds);
      w.key("level_seconds").begin_array();
      for (double s : e.level_seconds) w.value(s);
      w.end_array();
      if (e.presmooth_relres >= 0.0)
        w.kv("presmooth_relres", e.presmooth_relres);
      if (e.smoother_contraction >= 0.0)
        w.kv("smoother_contraction", e.smoother_contraction);
      w.end_object();
    }
    w.end_array();
  }

  w.key("convergence").begin_object();
  w.kv("iterations", long(convergence.iterations));
  w.kv("converged", convergence.converged);
  w.kv("final_relres", convergence.final_relres);
  w.kv("convergence_factor", convergence.convergence_factor);
  w.key("residual_history").begin_array();
  for (double r : convergence.residual_history) w.value(r);
  w.end_array();
  w.end_object();

  w.key("status").begin_object();
  w.kv("status", status.status);
  w.kv("nonfinite_iteration", long(status.nonfinite_iteration));
  w.kv("recoveries", long(status.recoveries));
  w.key("events").begin_array();
  for (const std::string& e : status.events) w.value(e);
  w.end_array();
  w.end_object();

  w.key("times").begin_object();
  w.kv("setup_seconds", setup_seconds);
  w.kv("solve_seconds", solve_seconds);
  w.kv("modeled_setup_seconds", modeled_setup_seconds);
  w.kv("modeled_solve_seconds", modeled_solve_seconds);
  w.end_object();

  w.end_object();
}

// ------------------------------------------------------------------------
// BenchReport
// ------------------------------------------------------------------------

void BenchReport::set_param(const std::string& k, const std::string& v) {
  Param p;
  p.key = k;
  p.text = v;
  params_.push_back(std::move(p));
}

void BenchReport::set_param(const std::string& k, double v) {
  Param p;
  p.key = k;
  p.numeric = true;
  p.number = v;
  params_.push_back(std::move(p));
}

void BenchReport::set_param(const std::string& k, long v) {
  Param p;
  p.key = k;
  p.numeric = true;
  p.integral = true;
  p.integer = v;
  params_.push_back(std::move(p));
}

BenchReport::Run& BenchReport::add_run(const std::string& name) {
  runs_.push_back(std::make_unique<Run>());
  runs_.back()->name = name;
  return *runs_.back();
}

std::string BenchReport::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.kv("schema_version", kSchemaVersion);
  w.kv("bench", bench_);
  w.key("params").begin_object();
  for (const Param& p : params_) {
    if (!p.numeric)
      w.kv(p.key, p.text);
    else if (p.integral)
      w.kv(p.key, p.integer);
    else
      w.kv(p.key, p.number);
  }
  w.end_object();
  if (metrics_) {
    const MetricsEnvelope& m = *metrics_;
    w.key("metrics").begin_object();
    w.kv("threads", long(m.threads));
    w.kv("build", m.build);
    if (!m.compiler.empty()) w.kv("compiler", m.compiler);
    w.kv("peak_rss_bytes", m.peak_rss_bytes);
    w.key("net").begin_object();
    w.kv("overhead_s", m.net_overhead_s);
    w.kv("peak_bw_bytes_per_s", m.net_peak_bw_bytes_per_s);
    w.kv("setup_cost_s", m.net_setup_cost_s);
    w.kv("rendezvous_extra_s", m.net_rendezvous_extra_s);
    w.kv("eager_limit_bytes", m.net_eager_limit_bytes);
    w.end_object();
    w.key("counters").begin_object();
    for (const auto& [k, v] : m.registry.counters) w.kv(k, v);
    w.end_object();
    w.key("gauges").begin_object();
    for (const auto& [k, v] : m.registry.gauges) w.kv(k, v);
    w.end_object();
    w.key("histograms").begin_object();
    for (const metrics::HistogramSnapshot& h : m.registry.histograms) {
      w.key(h.name).begin_object();
      w.kv("count", h.count);
      w.kv("sum", h.sum);
      w.key("buckets").begin_array();
      for (std::uint64_t b : h.buckets) w.value(b);
      w.end_array();
      w.end_object();
    }
    w.end_object();
    w.end_object();
  }
  w.key("runs").begin_array();
  for (const auto& run : runs_) {
    w.begin_object();
    w.kv("name", run->name);
    if (!run->labels.empty()) {
      w.key("labels").begin_object();
      for (const auto& [k, v] : run->labels) w.kv(k, v);
      w.end_object();
    }
    if (!run->metrics.empty()) {
      w.key("metrics").begin_object();
      for (const auto& [k, v] : run->metrics) w.kv(k, v);
      w.end_object();
    }
    if (run->solve) {
      w.key("report");
      run->solve->write_json(w);
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

bool BenchReport::write_file(const std::string& path) const {
  const std::string text = to_json();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size() &&
                  std::fputc('\n', f) != EOF;
  return std::fclose(f) == 0 && ok;
}

}  // namespace hpamg
