#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32c.h"
#include "common/execution_budget.h"
#include "common/hash.h"
#include "common/indexed_heap.h"
#include "common/math_util.h"
#include "common/rng.h"
#include "common/slog.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "common/table_writer.h"
#include "obs/request_trace.h"

namespace osrs {
namespace {

// ---------------------------------------------------------------- Status --

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad k");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad k");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad k");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kFailedPrecondition, StatusCode::kOutOfRange,
        StatusCode::kInternal, StatusCode::kUnimplemented,
        StatusCode::kResourceExhausted}) {
    EXPECT_STRNE(StatusCodeToString(code), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::vector<int>> r(std::vector<int>{1, 2, 3});
  std::vector<int> v = std::move(r).value();
  EXPECT_EQ(v.size(), 3u);
}

Status FailIfNegative(int x) {
  if (x < 0) return Status::OutOfRange("negative");
  return Status::OK();
}

Status Chained(int x) {
  OSRS_RETURN_IF_ERROR(FailIfNegative(x));
  return Status::OK();
}

TEST(ResultTest, ReturnIfErrorMacro) {
  EXPECT_TRUE(Chained(1).ok());
  EXPECT_EQ(Chained(-1).code(), StatusCode::kOutOfRange);
}

// ------------------------------------------------------------------ Hash --

TEST(HashTest, SplitMix64KnownVectors) {
  // The reference splitmix64 sequence from seed 0.
  uint64_t state = 0;
  EXPECT_EQ(SplitMix64(state), 0xe220a8397b1dcdafull);
  EXPECT_EQ(SplitMix64(state), 0x6e789e6aa1b965f4ull);
  EXPECT_EQ(SplitMix64(state), 0x06c45d188009454full);
  // Every user of the mixer is pinned to it: Rng seeding (the reference
  // xoshiro256** first output from seed 0) and trace ids.
  EXPECT_EQ(Rng(0).Next(), 0x99ec5f36cb75f2b4ull);
  EXPECT_EQ(obs::DeriveTraceId(1), 0x910a2dec89025cc1ull);
}

// ------------------------------------------------------------------- Rng --

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int differences = 0;
  for (int i = 0; i < 10; ++i) {
    if (a.Next() != b.Next()) ++differences;
  }
  EXPECT_GT(differences, 0);
}

TEST(RngTest, NextUint64RespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextUint64(17), 17u);
  }
}

TEST(RngTest, NextUint64IsRoughlyUniform) {
  Rng rng(11);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.NextUint64(10)];
  for (int c : counts) {
    EXPECT_NEAR(c, n / 10, 500);  // ~5 sigma
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, NextIntInclusiveRange) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.NextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, GaussianMomentsApproximate) {
  Rng rng(13);
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) samples.push_back(rng.NextGaussian());
  EXPECT_NEAR(Mean(samples), 0.0, 0.05);
  EXPECT_NEAR(StdDev(samples), 1.0, 0.05);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.NextBernoulli(0.0));
    EXPECT_TRUE(rng.NextBernoulli(1.0));
  }
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) hits += rng.NextBernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, ZipfFavorsSmallRanks) {
  Rng rng(21);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 50000; ++i) {
    uint64_t r = rng.NextZipf(100, 1.1);
    ASSERT_LT(r, 100u);
    ++counts[r];
  }
  EXPECT_GT(counts[0], counts[9]);
  EXPECT_GT(counts[0], 10 * counts[50]);
}

TEST(RngTest, ZipfSingleElement) {
  Rng rng(1);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.NextZipf(1, 1.0), 0u);
}

TEST(RngTest, DiscreteRespectsWeights) {
  Rng rng(31);
  std::vector<double> weights{1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 40000; ++i) ++counts[rng.NextDiscrete(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.2);
}

TEST(RngTest, SampleWithoutReplacementIsDistinct) {
  Rng rng(37);
  auto sample = rng.SampleWithoutReplacement(50, 20);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 20u);
  for (size_t v : sample) EXPECT_LT(v, 50u);
}

TEST(RngTest, SampleWithoutReplacementFull) {
  Rng rng(41);
  auto sample = rng.SampleWithoutReplacement(10, 10);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(43);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> original = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(99);
  Rng child = a.Fork();
  EXPECT_NE(a.Next(), child.Next());
}

// --------------------------------------------------------------- Strings --

TEST(StringsTest, SplitKeepsEmptyFields) {
  auto parts = Split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(StringsTest, SplitSingleField) {
  auto parts = Split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(StringsTest, SplitWhitespaceDropsEmpties) {
  auto parts = SplitWhitespace("  hello   world \t x ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "hello");
  EXPECT_EQ(parts[2], "x");
}

TEST(StringsTest, JoinRoundTrip) {
  std::vector<std::string> parts{"a", "b", "c"};
  EXPECT_EQ(Join(parts, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringsTest, TrimBothEnds) {
  EXPECT_EQ(Trim("  abc \n"), "abc");
  EXPECT_EQ(Trim("abc"), "abc");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringsTest, ToLowerAscii) {
  EXPECT_EQ(ToLower("HeLLo 123"), "hello 123");
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("battery life", "battery"));
  EXPECT_FALSE(StartsWith("batt", "battery"));
  EXPECT_TRUE(EndsWith("battery life", "life"));
  EXPECT_FALSE(EndsWith("life", "battery life"));
}

TEST(StringsTest, ParseInt64AcceptsWholeIntegers) {
  int64_t value = 0;
  EXPECT_TRUE(ParseInt64("42", &value));
  EXPECT_EQ(value, 42);
  EXPECT_TRUE(ParseInt64("-17", &value));
  EXPECT_EQ(value, -17);
  EXPECT_FALSE(ParseInt64("", &value));
  EXPECT_FALSE(ParseInt64("12x", &value));
  EXPECT_FALSE(ParseInt64("x12", &value));
  EXPECT_FALSE(ParseInt64("1 2", &value));
  EXPECT_FALSE(ParseInt64("999999999999999999999999", &value));  // overflow
}

TEST(StringsTest, ParseDoubleAcceptsWholeNumbers) {
  double value = 0;
  EXPECT_TRUE(ParseDouble("0.5", &value));
  EXPECT_DOUBLE_EQ(value, 0.5);
  EXPECT_TRUE(ParseDouble("-1e-3", &value));
  EXPECT_DOUBLE_EQ(value, -1e-3);
  EXPECT_FALSE(ParseDouble("", &value));
  EXPECT_FALSE(ParseDouble("0.5abc", &value));
  EXPECT_FALSE(ParseDouble("abc", &value));
}

TEST(StringsTest, StrFormatBasics) {
  EXPECT_EQ(StrFormat("k=%d eps=%.1f", 5, 0.5), "k=5 eps=0.5");
  EXPECT_EQ(StrFormat("%s", ""), "");
}

// ------------------------------------------------------------- MathUtil --

TEST(MathUtilTest, MeanAndStdDev) {
  std::vector<double> v{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(Mean(v), 5.0);
  EXPECT_DOUBLE_EQ(StdDev(v), 2.0);
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(StdDev({1.0}), 0.0);
}

TEST(MathUtilTest, PercentileInterpolates) {
  std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 4.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 2.5);
}

TEST(MathUtilTest, HarmonicNumber) {
  EXPECT_DOUBLE_EQ(HarmonicNumber(0), 0.0);
  EXPECT_DOUBLE_EQ(HarmonicNumber(1), 1.0);
  EXPECT_NEAR(HarmonicNumber(4), 1.0 + 0.5 + 1.0 / 3 + 0.25, 1e-12);
}

TEST(MathUtilTest, VectorOps) {
  std::vector<double> a{1.0, 0.0}, b{0.0, 2.0};
  EXPECT_DOUBLE_EQ(Dot(a, b), 0.0);
  EXPECT_DOUBLE_EQ(Norm2(b), 2.0);
  EXPECT_DOUBLE_EQ(CosineSimilarity(a, b), 0.0);
  EXPECT_DOUBLE_EQ(CosineSimilarity(a, a), 1.0);
  EXPECT_DOUBLE_EQ(CosineSimilarity(a, {0.0, 0.0}), 0.0);
}

TEST(MathUtilTest, ClampAndNearlyEqual) {
  EXPECT_DOUBLE_EQ(Clamp(5.0, 0.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(Clamp(-5.0, 0.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(Clamp(0.5, 0.0, 1.0), 0.5);
  EXPECT_TRUE(NearlyEqual(1.0, 1.0 + 1e-12));
  EXPECT_FALSE(NearlyEqual(1.0, 1.1));
}

// ----------------------------------------------------------- IndexedHeap --

TEST(IndexedHeapTest, PopsInDescendingOrder) {
  IndexedMaxHeap heap({3.0, 1.0, 4.0, 1.5, 9.0});
  std::vector<int> order;
  while (!heap.empty()) order.push_back(heap.PopMax());
  EXPECT_EQ(order, (std::vector<int>{4, 2, 0, 3, 1}));
}

TEST(IndexedHeapTest, TieBreaksTowardSmallerId) {
  IndexedMaxHeap heap({2.0, 2.0, 2.0});
  EXPECT_EQ(heap.PopMax(), 0);
  EXPECT_EQ(heap.PopMax(), 1);
  EXPECT_EQ(heap.PopMax(), 2);
}

TEST(IndexedHeapTest, UpdateKeyMovesElement) {
  IndexedMaxHeap heap({1.0, 2.0, 3.0});
  heap.UpdateKey(0, 10.0);
  EXPECT_EQ(heap.PeekMax(), 0);
  heap.UpdateKey(0, 0.5);
  EXPECT_EQ(heap.PeekMax(), 2);
}

TEST(IndexedHeapTest, ContainsTracksPops) {
  IndexedMaxHeap heap({1.0, 2.0});
  EXPECT_TRUE(heap.Contains(0));
  int popped = heap.PopMax();
  EXPECT_FALSE(heap.Contains(popped));
  EXPECT_TRUE(heap.Contains(1 - popped));
}

TEST(IndexedHeapTest, RandomizedAgainstSort) {
  Rng rng(55);
  std::vector<double> keys(200);
  for (double& k : keys) k = rng.NextDouble();
  IndexedMaxHeap heap(keys);
  // Apply random updates.
  for (int i = 0; i < 100; ++i) {
    int id = static_cast<int>(rng.NextUint64(200));
    double nk = rng.NextDouble();
    keys[static_cast<size_t>(id)] = nk;
    heap.UpdateKey(id, nk);
  }
  double prev = std::numeric_limits<double>::infinity();
  while (!heap.empty()) {
    int id = heap.PopMax();
    EXPECT_LE(keys[static_cast<size_t>(id)], prev + 1e-15);
    prev = keys[static_cast<size_t>(id)];
  }
}

// ----------------------------------------------------------- TableWriter --

TEST(TableWriterTest, CsvOutput) {
  TableWriter table("demo");
  table.SetHeader({"k", "cost"});
  table.AddRow({"1", "3.5"});
  table.AddRow("2", {4.25}, 2);
  EXPECT_EQ(table.ToCsv(), "k,cost\n1,3.5\n2,4.25\n");
  EXPECT_EQ(table.row_count(), 2u);
}

// ------------------------------------------------------------- Stopwatch --

TEST(StopwatchTest, MeasuresNonNegativeTime) {
  Stopwatch watch;
  double t1 = watch.ElapsedSeconds();
  EXPECT_GE(t1, 0.0);
  double t2 = watch.ElapsedSeconds();
  EXPECT_GE(t2, t1);
  watch.Reset();
  EXPECT_GE(watch.ElapsedMillis(), 0.0);
  EXPECT_GE(watch.ElapsedMicros(), 0.0);
}

// ------------------------------------------------------------ JsonEscape --

TEST(JsonEscapeTest, PassesPlainTextThrough) {
  EXPECT_EQ(JsonEscape("battery life"), "battery life");
  EXPECT_EQ(JsonEscape(""), "");
}

TEST(JsonEscapeTest, EscapesQuotesAndBackslashes) {
  EXPECT_EQ(JsonEscape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(JsonEscape("C:\\path"), "C:\\\\path");
}

TEST(JsonEscapeTest, EscapesControlCharacters) {
  EXPECT_EQ(JsonEscape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
  EXPECT_EQ(JsonEscape("\b\f"), "\\b\\f");
  // Control chars without a shorthand use \u00XX.
  EXPECT_EQ(JsonEscape(std::string("\x01\x1f", 2)), "\\u0001\\u001f");
  // NUL must not truncate the string.
  EXPECT_EQ(JsonEscape(std::string("a\0b", 3)), "a\\u0000b");
}

TEST(JsonEscapeTest, LeavesUtf8BytesAlone) {
  // Multi-byte UTF-8 (é) passes through unescaped; \u00e9 would be wrong
  // byte-wise and escaping is optional above 0x1f anyway.
  EXPECT_EQ(JsonEscape("caf\xc3\xa9"), "caf\xc3\xa9");
}

// ------------------------------------------------------- ExecutionBudget --

TEST(ExecutionBudgetTest, DefaultIsUnlimited) {
  ExecutionBudget budget;
  EXPECT_TRUE(budget.IsUnlimited());
  EXPECT_TRUE(budget.Check().ok());
  EXPECT_TRUE(budget.Check(1'000'000'000).ok());
  EXPECT_EQ(budget.RemainingMs(),
            std::numeric_limits<double>::infinity());
}

TEST(ExecutionBudgetTest, ExpiredDeadlineTripsWithDeadlineExceeded) {
  ExecutionBudget budget = ExecutionBudget::FromDeadlineMs(-1.0);
  Status status = budget.Check();
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(budget.RemainingMs(), 0.0);
}

TEST(ExecutionBudgetTest, FutureDeadlinePassesChecks) {
  ExecutionBudget budget = ExecutionBudget::FromDeadlineMs(60'000.0);
  EXPECT_TRUE(budget.Check().ok());
  EXPECT_GT(budget.RemainingMs(), 0.0);
}

TEST(ExecutionBudgetTest, WorkBudgetTripsWithResourceExhausted) {
  ExecutionBudget budget;
  budget.SetMaxWork(100);
  EXPECT_TRUE(budget.Check(99).ok());
  EXPECT_EQ(budget.Check(100).code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(budget.Check(101).code(), StatusCode::kResourceExhausted);
}

TEST(ExecutionBudgetTest, CancellationWinsOverEverything) {
  CancellationFlag flag;
  ExecutionBudget budget = ExecutionBudget::FromDeadlineMs(-1.0);
  budget.SetMaxWork(1);
  budget.AddCancellation(&flag);
  EXPECT_EQ(budget.Check(5).code(), StatusCode::kDeadlineExceeded);
  flag.Cancel();
  EXPECT_EQ(budget.Check(5).code(), StatusCode::kCancelled);
  flag.Reset();
  EXPECT_EQ(budget.Check(5).code(), StatusCode::kDeadlineExceeded);
}

TEST(ExecutionBudgetTest, AnyOfSeveralFlagsCancels) {
  CancellationFlag a;
  CancellationFlag b;
  ExecutionBudget budget;
  budget.AddCancellation(&a);
  budget.AddCancellation(&b);
  budget.AddCancellation(nullptr);  // ignored
  EXPECT_TRUE(budget.Check().ok());
  b.Cancel();
  EXPECT_EQ(budget.Check().code(), StatusCode::kCancelled);
}

TEST(ExecutionBudgetTest, TightenedByTakesTheStricterOfEach) {
  CancellationFlag flag;
  ExecutionBudget a = ExecutionBudget::FromDeadlineMs(60'000.0);
  a.SetMaxWork(500);
  ExecutionBudget b;
  b.SetMaxWork(100);
  b.AddCancellation(&flag);
  ExecutionBudget merged = a.TightenedBy(b);
  EXPECT_TRUE(merged.has_deadline());
  EXPECT_EQ(merged.max_work(), 100);
  EXPECT_TRUE(merged.Check(99).ok());
  flag.Cancel();
  EXPECT_EQ(merged.Check(0).code(), StatusCode::kCancelled);
}

TEST(ExecutionBudgetTest, CancellationOnlyDropsDeadlineAndWork) {
  CancellationFlag flag;
  ExecutionBudget budget = ExecutionBudget::FromDeadlineMs(-1.0);
  budget.SetMaxWork(1);
  budget.AddCancellation(&flag);
  ExecutionBudget relaxed = budget.CancellationOnly();
  EXPECT_TRUE(relaxed.Check(1'000'000).ok());
  flag.Cancel();
  EXPECT_EQ(relaxed.Check().code(), StatusCode::kCancelled);
}

TEST(StatusTest, NewBudgetCodesRoundTrip) {
  EXPECT_EQ(Status::DeadlineExceeded("late").code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(Status::Cancelled("stop").code(), StatusCode::kCancelled);
  EXPECT_NE(std::string(StatusCodeToString(StatusCode::kDeadlineExceeded)),
            std::string(StatusCodeToString(StatusCode::kCancelled)));
}

// ------------------------------------------------- structured logging ------

/// Captures emitted lines; restores the stderr sink on destruction.
class ScopedLogCapture {
 public:
  ScopedLogCapture() {
    slog::SetSink(
        [](std::string_view line, void* user_data) {
          static_cast<std::string*>(user_data)->append(line);
        },
        &captured_);
  }
  ~ScopedLogCapture() { slog::SetSink(nullptr, nullptr); }
  const std::string& text() const { return captured_; }

 private:
  std::string captured_;
};

TEST(SlogTest, EmitRendersOneParseableJsonLine) {
  ScopedLogCapture capture;
  slog::Emit(slog::Level::kWarn, "test", 0xabcdef0123456789ull,
             "something \"odd\"",
             {{"item", std::string_view("a\tb")},
              {"count", 42},
              {"ratio", 0.5},
              {"ok", true}});
  const std::string& line = capture.text();
  EXPECT_NE(line.find("\"level\":\"warn\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"module\":\"test\""), std::string::npos);
  EXPECT_NE(line.find("\"trace_id\":\"abcdef0123456789\""), std::string::npos)
      << "trace ids render as zero-padded hex strings";
  EXPECT_NE(line.find("\"message\":\"something \\\"odd\\\"\""),
            std::string::npos)
      << "messages must be JSON-escaped";
  EXPECT_NE(line.find("\"item\":\"a\\tb\""), std::string::npos);
  EXPECT_NE(line.find("\"count\":42"), std::string::npos);
  EXPECT_NE(line.find("\"ratio\":0.5"), std::string::npos);
  EXPECT_NE(line.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(line.find("\"ts_ms\":"), std::string::npos);
  EXPECT_EQ(line.back(), '\n');
}

TEST(SlogTest, ZeroTraceIdIsOmitted) {
  ScopedLogCapture capture;
  slog::Emit(slog::Level::kInfo, "test", 0, "plain", {});
  EXPECT_EQ(capture.text().find("trace_id"), std::string::npos);
}

TEST(SlogTest, DroppedCountRendersWhenPositive) {
  ScopedLogCapture capture;
  slog::Emit(slog::Level::kInfo, "test", 0, "m", {}, 3);
  EXPECT_NE(capture.text().find("\"dropped\":3"), std::string::npos)
      << capture.text();
}

TEST(SlogTest, MinLevelFiltersAndRestores) {
  slog::SetMinLevel(slog::Level::kError);
  EXPECT_FALSE(slog::ShouldLog(slog::Level::kWarn));
  EXPECT_TRUE(slog::ShouldLog(slog::Level::kError));
  slog::SetMinLevel(slog::Level::kInfo);
  EXPECT_TRUE(slog::ShouldLog(slog::Level::kWarn));
  EXPECT_FALSE(slog::ShouldLog(slog::Level::kDebug));
}

TEST(SlogTest, SiteRateLimiterAdmitsBurstThenDropsAndCounts) {
  // Burst of 2, effectively no refill: two admits, then drops accumulate
  // until the next admitted event reports them.
  slog::SiteRateLimiter limiter(2.0, 1e-9);
  uint64_t dropped = 0;
  EXPECT_TRUE(limiter.Admit(&dropped));
  EXPECT_EQ(dropped, 0u);
  EXPECT_TRUE(limiter.Admit(&dropped));
  EXPECT_EQ(dropped, 0u);
  EXPECT_FALSE(limiter.Admit(&dropped));
  EXPECT_FALSE(limiter.Admit(&dropped));
  // Refill two tokens' worth by hand is impossible without waiting, so
  // just verify the drop count is surfaced once tokens reappear: a fresh
  // limiter models the post-refill state.
  slog::SiteRateLimiter refilled(1.0, 1e-9);
  uint64_t later = 0;
  EXPECT_TRUE(refilled.Admit(&later));
  EXPECT_FALSE(refilled.Admit(&later));
  EXPECT_FALSE(refilled.Admit(&later));
}

TEST(SlogTest, LogMacroEmitsAboveMinLevel) {
  ScopedLogCapture capture;
  OSRS_LOG(slog::Level::kWarn, "test_macro", "macro event", {"k", 1});
  EXPECT_NE(capture.text().find("\"message\":\"macro event\""),
            std::string::npos);
}

// -- CRC-32C (the checksum guarding src/store's on-disk bytes) -----------

TEST(Crc32cTest, KnownVectors) {
  // Published CRC-32C test vectors (RFC 3720 appendix B.4 / the values
  // every Castagnoli implementation agrees on).
  EXPECT_EQ(Crc32c("", 0), 0x00000000u);
  EXPECT_EQ(Crc32c("a", 1), 0xC1D04330u);
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  std::string zeros(32, '\0');
  EXPECT_EQ(Crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
}

TEST(Crc32cTest, SeedChainingMatchesOnePass) {
  // Crc32c(b, seed=Crc32c(a)) == Crc32c(a+b): the property the snapshot
  // header relies on to checksum in pieces. Check every split point.
  std::string data = "the quick brown fox jumps over the lazy dog";
  uint32_t whole = Crc32c(data.data(), data.size());
  for (size_t split = 0; split <= data.size(); ++split) {
    uint32_t head = Crc32c(data.data(), split);
    uint32_t chained = Crc32c(data.data() + split, data.size() - split, head);
    EXPECT_EQ(chained, whole) << "split=" << split;
  }
}

TEST(Crc32cTest, DetectsEverySingleBitFlip) {
  std::string data = "journal record payload bytes";
  uint32_t clean = Crc32c(data.data(), data.size());
  for (size_t byte = 0; byte < data.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = data;
      flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
      EXPECT_NE(Crc32c(flipped.data(), flipped.size()), clean)
          << "byte=" << byte << " bit=" << bit;
    }
  }
}

TEST(Crc32cTest, StringViewOverloadMatchesPointerForm) {
  std::string data = "overload equivalence";
  EXPECT_EQ(Crc32c(std::string_view(data)), Crc32c(data.data(), data.size()));
}

}  // namespace
}  // namespace osrs
