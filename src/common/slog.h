#ifndef OSRS_COMMON_SLOG_H_
#define OSRS_COMMON_SLOG_H_

// Structured leveled logging: one JSON line per event, written to a
// process-wide sink (stderr by default). Every event carries a level, the
// emitting module, a message, an optional 64-bit trace id (rendered as a
// hex string so JSON parsers never round it), and free-form key/value
// fields — so a shed decision, a retry, or a failpoint injection is one
// grep-able, machine-parseable record instead of prose on stderr.
//
// A runtime minimum-level gate (default kInfo) keeps the layer free when
// unused: it is read with one relaxed atomic load before any argument
// evaluation.
//
// Every OSRS_LOG site additionally owns a token-bucket rate limiter
// (function-local static), so a hot failure path — thousands of sheds per
// second under overload — cannot flood the sink: excess events are
// dropped and the next admitted event from that site reports how many via
// a "dropped" field.
//
// The sink is pluggable (SetSink) so tests capture lines in memory; the
// default writes whole lines to stderr with one fwrite. tools/lint.sh
// bans raw std::cerr / fprintf(stderr) logging in src/ outside this
// logger, making these macros the only diagnostic channel.

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>

namespace osrs::slog {

enum class Level : int {
  kDebug = 0,
  kInfo = 1,
  kWarn = 2,
  kError = 3,
};

/// Stable wire name: "debug" / "info" / "warn" / "error".
const char* LevelName(Level level);

namespace internal {
/// The runtime minimum-level gate. Function-local static so sites touched
/// during static init see an initialized atomic.
inline std::atomic<int>& MinLevelFlag() {
  static std::atomic<int> min_level{static_cast<int>(Level::kInfo)};
  return min_level;
}
}  // namespace internal

/// Events below `level` are dropped before argument evaluation.
inline void SetMinLevel(Level level) {
  internal::MinLevelFlag().store(static_cast<int>(level),
                                 std::memory_order_relaxed);
}

inline Level MinLevel() {
  return static_cast<Level>(
      internal::MinLevelFlag().load(std::memory_order_relaxed));
}

/// True when an event at `level` would be emitted (at or above the runtime
/// minimum level).
inline bool ShouldLog(Level level) {
  return static_cast<int>(level) >=
         internal::MinLevelFlag().load(std::memory_order_relaxed);
}

/// One key/value pair of an event. Holds views only — a Field is valid
/// for the full expression it is constructed in (the OSRS_LOG call),
/// which is exactly as long as Emit needs it.
class Field {
 public:
  Field(std::string_view key, std::string_view value)
      : key_(key), kind_(Kind::kString), str_(value) {}
  Field(std::string_view key, const char* value)
      : key_(key), kind_(Kind::kString), str_(value) {}
  Field(std::string_view key, bool value)
      : key_(key), kind_(Kind::kBool), int_(value ? 1 : 0) {}
  Field(std::string_view key, int value)
      : key_(key), kind_(Kind::kInt), int_(value) {}
  Field(std::string_view key, long value)
      : key_(key), kind_(Kind::kInt), int_(value) {}
  Field(std::string_view key, long long value)
      : key_(key), kind_(Kind::kInt), int_(value) {}
  Field(std::string_view key, unsigned value)
      : key_(key), kind_(Kind::kUint), uint_(value) {}
  Field(std::string_view key, unsigned long value)
      : key_(key), kind_(Kind::kUint), uint_(value) {}
  Field(std::string_view key, unsigned long long value)
      : key_(key), kind_(Kind::kUint), uint_(value) {}
  Field(std::string_view key, double value)
      : key_(key), kind_(Kind::kDouble), double_(value) {}

  /// Appends `"key":<value>` (JSON-escaped) to `out`.
  void AppendTo(std::string* out) const;

 private:
  enum class Kind { kString, kBool, kInt, kUint, kDouble };
  std::string_view key_;
  Kind kind_;
  std::string_view str_;
  int64_t int_ = 0;
  uint64_t uint_ = 0;
  double double_ = 0.0;
};

/// Line sink. Receives one complete JSON line (newline included) per
/// event; calls are serialized by the logger's internal mutex.
using Sink = void (*)(std::string_view line, void* user_data);

/// Replaces the process-wide sink (nullptr restores the stderr default).
/// Intended for tests and embedding; the previous sink is not returned,
/// so restore with SetSink(nullptr, nullptr).
void SetSink(Sink sink, void* user_data);

/// Formats and writes one event:
///   {"ts_ms":<wall ms>,"level":"...","module":"...",
///    "trace_id":"<16 hex>",      (omitted when trace_id == 0)
///    "message":"...",<fields...>,"dropped":N}   (dropped omitted when 0)
/// Prefer the OSRS_LOG macros, which add the level gate and per-site rate
/// limiting around this call.
void Emit(Level level, std::string_view module, uint64_t trace_id,
          std::string_view message, std::initializer_list<Field> fields,
          uint64_t dropped_since_last = 0);

/// Token bucket guarding one log site: `burst` tokens capacity, refilled
/// at `per_second`. Lock-free (relaxed atomics); under contention a
/// refill may be applied by one thread while another drops, so admission
/// is approximate by a token or two — fine for log throttling. Dropped
/// events are counted and handed to the next admitted caller so the
/// stream records the gap.
class SiteRateLimiter {
 public:
  SiteRateLimiter(double burst, double per_second);

  /// Takes one token if available. On success stores the number of events
  /// dropped since the previous success in `*dropped_since_last` (and
  /// zeroes the tally); on failure counts the drop and returns false.
  bool Admit(uint64_t* dropped_since_last);

 private:
  static constexpr int64_t kMicroToken = 1000000;  // fixed-point token
  const int64_t burst_micro_;
  const double per_second_;
  std::atomic<int64_t> micro_tokens_;
  std::atomic<int64_t> last_refill_ns_;
  std::atomic<uint64_t> dropped_{0};
};

/// Default per-site throttle: a 20-event burst, refilled at 5/s. Hot
/// paths (shed storms, chaos-injected failures) settle at five lines per
/// second per site with an accurate dropped count.
inline constexpr double kDefaultBurst = 20.0;
inline constexpr double kDefaultPerSecond = 5.0;

}  // namespace osrs::slog

// One structured event with an explicit trace id. `fields...` are
// brace-ready Field initializers: OSRS_LOG_T(osrs::slog::Level::kWarn,
// "serve", id, "shed", {"item", item_id}, {"queue_ms", q}).
#define OSRS_LOG_T(level, module, trace_id_expr, message, ...)             \
  do {                                                                     \
    if (::osrs::slog::ShouldLog(level)) {                                  \
      static ::osrs::slog::SiteRateLimiter osrs_log_limiter_(              \
          ::osrs::slog::kDefaultBurst, ::osrs::slog::kDefaultPerSecond);   \
      uint64_t osrs_log_dropped_ = 0;                                      \
      if (osrs_log_limiter_.Admit(&osrs_log_dropped_)) {                   \
        ::osrs::slog::Emit(level, module, trace_id_expr, message,          \
                           {__VA_ARGS__}, osrs_log_dropped_);              \
      }                                                                    \
    }                                                                      \
  } while (0)

// One structured event with no request association (trace_id omitted).
#define OSRS_LOG(level, module, message, ...) \
  OSRS_LOG_T(level, module, /*trace_id=*/0, message, ##__VA_ARGS__)

#endif  // OSRS_COMMON_SLOG_H_
