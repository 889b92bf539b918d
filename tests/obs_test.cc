// Tests for the telemetry subsystem: counters, histogram quantiles, span
// nesting across party threads, enable/disable gating, and the JSON report.
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "data/warfarin_gen.h"
#include "net/fault.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "serve/fault_offsets.h"
#include "util/random.h"

namespace pafs {
namespace {

// Each test owns the global registry for its duration.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    PafsTelemetry::Reset();
    PafsTelemetry::Enable();
  }
  void TearDown() override {
    PafsTelemetry::Disable();
    PafsTelemetry::Reset();
  }
};

TEST_F(ObsTest, CounterCountsAndResets) {
  obs::Counter& c = obs::GetCounter("test.counter");
  EXPECT_EQ(c.value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
  // Same name resolves to the same counter.
  EXPECT_EQ(&obs::GetCounter("test.counter"), &c);
  obs::ResetMetrics();
  EXPECT_EQ(c.value(), 0u);
}

TEST_F(ObsTest, CounterIsConcurrencySafe) {
  obs::Counter& c = obs::GetCounter("test.concurrent");
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 10000; ++i) c.Add();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value(), 40000u);
}

TEST_F(ObsTest, DisabledMeansNoCollection) {
  PafsTelemetry::Disable();
  obs::GetCounter("test.gated").Add(100);
  obs::GetHistogram("test.gated_h").Record(1.0);
  { obs::TraceSpan span("test.gated_span"); }
  EXPECT_EQ(obs::GetCounter("test.gated").value(), 0u);
  EXPECT_EQ(obs::GetHistogram("test.gated_h").Snap().count, 0u);
  bool saw_phase = false;
  obs::VisitPhases([&](const std::string&, int, const obs::PhaseNode&) {
    saw_phase = true;
  });
  EXPECT_FALSE(saw_phase);

  // Re-enabling resumes collection on the same objects.
  PafsTelemetry::Enable();
  obs::GetCounter("test.gated").Add(7);
  EXPECT_EQ(obs::GetCounter("test.gated").value(), 7u);
}

TEST_F(ObsTest, HistogramExactStatsAndUniformQuantiles) {
  obs::Histogram& h = obs::GetHistogram("test.uniform");
  for (int i = 1; i <= 1000; ++i) h.Record(static_cast<double>(i));
  obs::Histogram::Snapshot snap = h.Snap();
  EXPECT_EQ(snap.count, 1000u);
  EXPECT_DOUBLE_EQ(snap.sum, 500500.0);
  EXPECT_DOUBLE_EQ(snap.min, 1.0);
  EXPECT_DOUBLE_EQ(snap.max, 1000.0);
  EXPECT_NEAR(snap.mean(), 500.5, 1e-9);
  // Geometric 2^(1/4) buckets bound relative quantile error by ~19%; allow
  // 25% for the rank discretization on top.
  EXPECT_NEAR(snap.p50, 500.0, 0.25 * 500.0);
  EXPECT_NEAR(snap.p95, 950.0, 0.25 * 950.0);
  EXPECT_NEAR(snap.p99, 990.0, 0.25 * 990.0);
}

TEST_F(ObsTest, HistogramConstantDistribution) {
  obs::Histogram& h = obs::GetHistogram("test.constant");
  for (int i = 0; i < 100; ++i) h.Record(0.125);
  obs::Histogram::Snapshot snap = h.Snap();
  EXPECT_DOUBLE_EQ(snap.min, 0.125);
  EXPECT_DOUBLE_EQ(snap.max, 0.125);
  // All quantiles must clamp into [min, max] = a point.
  EXPECT_DOUBLE_EQ(snap.p50, 0.125);
  EXPECT_DOUBLE_EQ(snap.p99, 0.125);
}

TEST_F(ObsTest, HistogramHandlesExtremes) {
  obs::Histogram& h = obs::GetHistogram("test.extremes");
  h.Record(0.0);     // Below the first bucket: clamped into it, counted.
  h.Record(-5.0);    // Negative: dropped (domain is positive doubles).
  h.Record(std::nan(""));  // NaN: dropped likewise.
  h.Record(1e300);   // Beyond the last bucket: clamped into it, counted.
  obs::Histogram::Snapshot snap = h.Snap();
  EXPECT_EQ(snap.count, 2u);
  EXPECT_DOUBLE_EQ(snap.min, 0.0);
  EXPECT_DOUBLE_EQ(snap.max, 1e300);
}

TEST_F(ObsTest, SpansNestIntoAggregatedTree) {
  obs::SetThreadParty("tester");
  for (int i = 0; i < 3; ++i) {
    obs::TraceSpan outer("outer");
    outer.AddAttr("weight", 2.0);
    {
      obs::TraceSpan inner("inner");
      obs::TraceSpan::CurrentAddBytes(10);
      obs::TraceSpan::CurrentAddRounds(1);
    }
  }
  bool found = false;
  obs::ForEachParty([&](const std::string& party,
                        const std::vector<const obs::PhaseNode*>& roots) {
    if (party != "tester") return;
    found = true;
    ASSERT_EQ(roots.size(), 1u);
    const obs::PhaseNode& outer = *roots[0];
    EXPECT_EQ(outer.name, "outer");
    EXPECT_EQ(outer.count, 3u);  // Re-entry aggregates, not duplicates.
    EXPECT_DOUBLE_EQ(outer.attrs.at("weight"), 6.0);
    ASSERT_EQ(outer.children.size(), 1u);
    const obs::PhaseNode& inner = *outer.children.at("inner");
    EXPECT_EQ(inner.count, 3u);
    EXPECT_EQ(inner.bytes, 10u * 3);
    EXPECT_EQ(inner.rounds, 3u);
    // The child executes inside the parent, so timings must nest.
    EXPECT_LE(inner.seconds, outer.seconds);
    EXPECT_GE(outer.SelfSeconds(), 0.0);
    EXPECT_NEAR(outer.SelfSeconds(), outer.seconds - inner.seconds, 1e-12);
  });
  EXPECT_TRUE(found);
}

TEST_F(ObsTest, PartiesGetSeparateTreesAcrossThreads) {
  std::thread server([&] {
    obs::SetThreadParty("server");
    obs::TraceSpan root("work");
    obs::TraceSpan child("garble");
  });
  std::thread client([&] {
    obs::SetThreadParty("client");
    obs::TraceSpan root("work");
    obs::TraceSpan child("eval");
  });
  server.join();
  client.join();

  std::map<std::string, std::string> child_of_party;
  obs::ForEachParty([&](const std::string& party,
                        const std::vector<const obs::PhaseNode*>& roots) {
    ASSERT_EQ(roots.size(), 1u);
    EXPECT_EQ(roots[0]->name, "work");
    ASSERT_EQ(roots[0]->children.size(), 1u);
    child_of_party[party] = roots[0]->children.begin()->first;
  });
  ASSERT_EQ(child_of_party.size(), 2u);
  EXPECT_EQ(child_of_party["server"], "garble");
  EXPECT_EQ(child_of_party["client"], "eval");
}

TEST_F(ObsTest, CurrentHelpersDropWithoutLiveSpan) {
  // No current span on this thread: attribution must be silently dropped,
  // not crash or leak into another party's tree.
  obs::SetThreadParty("orphan");
  obs::TraceSpan::CurrentAddBytes(999);
  obs::TraceSpan::CurrentAddAttr("ghost", 1.0);
  obs::ForEachParty([&](const std::string& party,
                        const std::vector<const obs::PhaseNode*>&) {
    EXPECT_NE(party, "orphan");
  });
}

TEST_F(ObsTest, ResetClearsEverything) {
  obs::GetCounter("test.reset").Add(5);
  obs::GetHistogram("test.reset_h").Record(2.0);
  { obs::TraceSpan span("test.reset_span"); }
  PafsTelemetry::Reset();
  EXPECT_EQ(obs::GetCounter("test.reset").value(), 0u);
  EXPECT_EQ(obs::GetHistogram("test.reset_h").Snap().count, 0u);
  bool saw_phase = false;
  obs::VisitPhases([&](const std::string&, int, const obs::PhaseNode&) {
    saw_phase = true;
  });
  EXPECT_FALSE(saw_phase);
}

// ---------------------------------------------------------------------------
// JSON round-trip: a minimal recursive-descent parser, enough to verify the
// report's structure and values (objects, arrays, strings, numbers).

struct JsonValue {
  enum Kind { kNull, kBool, kNumber, kString, kArray, kObject } kind = kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  const JsonValue& at(const std::string& key) const {
    auto it = object.find(key);
    EXPECT_NE(it, object.end()) << "missing key: " << key;
    static const JsonValue kEmpty;
    return it == object.end() ? kEmpty : it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue Parse() {
    JsonValue v = ParseValue();
    SkipWs();
    EXPECT_EQ(pos_, text_.size()) << "trailing garbage in JSON";
    return v;
  }

 private:
  void SkipWs() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\n' ||
                                   text_[pos_] == '\t' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }
  char Peek() {
    SkipWs();
    EXPECT_LT(pos_, text_.size()) << "unexpected end of JSON";
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }
  void Expect(char c) {
    EXPECT_EQ(Peek(), c) << "at offset " << pos_;
    ++pos_;
  }
  JsonValue ParseValue() {
    switch (Peek()) {
      case '{': return ParseObject();
      case '[': return ParseArray();
      case '"': {
        JsonValue v;
        v.kind = JsonValue::kString;
        v.string = ParseString();
        return v;
      }
      case 't': pos_ += 4; return MakeBool(true);
      case 'f': pos_ += 5; return MakeBool(false);
      case 'n': pos_ += 4; return JsonValue();
      default: return ParseNumber();
    }
  }
  static JsonValue MakeBool(bool b) {
    JsonValue v;
    v.kind = JsonValue::kBool;
    v.boolean = b;
    return v;
  }
  std::string ParseString() {
    Expect('"');
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\' && pos_ < text_.size()) {
        char esc = text_[pos_++];
        switch (esc) {
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'u': pos_ += 4; out += '?'; break;  // Good enough for tests.
          default: out += esc; break;
        }
      } else {
        out += c;
      }
    }
    Expect('"');
    return out;
  }
  JsonValue ParseNumber() {
    size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    JsonValue v;
    v.kind = JsonValue::kNumber;
    v.number = std::stod(text_.substr(start, pos_ - start));
    return v;
  }
  JsonValue ParseArray() {
    Expect('[');
    JsonValue v;
    v.kind = JsonValue::kArray;
    if (Peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(ParseValue());
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      Expect(']');
      return v;
    }
  }
  JsonValue ParseObject() {
    Expect('{');
    JsonValue v;
    v.kind = JsonValue::kObject;
    if (Peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      std::string key = ParseString();
      Expect(':');
      v.object[key] = ParseValue();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      Expect('}');
      return v;
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

TEST_F(ObsTest, JsonReportRoundTrips) {
  obs::SetThreadParty("json-party");
  {
    obs::TraceSpan outer("phase \"quoted\"");  // Exercise string escaping.
    outer.AddAttr("gates", 128.0);
    obs::TraceSpan inner("child");
    obs::TraceSpan::CurrentAddBytes(4096);
  }
  obs::GetCounter("json.counter").Add(17);
  for (int i = 1; i <= 10; ++i) {
    obs::GetHistogram("json.hist").Record(static_cast<double>(i));
  }

  std::string json = obs::RenderJson();
  JsonValue root = JsonParser(json).Parse();
  ASSERT_EQ(root.kind, JsonValue::kObject);

  // Phase tree: parties -> phases -> children, with names and totals intact.
  const JsonValue& parties = root.at("parties");
  ASSERT_EQ(parties.kind, JsonValue::kArray);
  const JsonValue* party = nullptr;
  for (const JsonValue& p : parties.array) {
    if (p.at("party").string == "json-party") party = &p;
  }
  ASSERT_NE(party, nullptr);
  const JsonValue& phases = party->at("phases");
  ASSERT_EQ(phases.array.size(), 1u);
  const JsonValue& outer = phases.array[0];
  EXPECT_EQ(outer.at("name").string, "phase \"quoted\"");
  EXPECT_EQ(outer.at("count").number, 1.0);
  EXPECT_EQ(outer.at("attrs").at("gates").number, 128.0);
  EXPECT_GE(outer.at("seconds").number, outer.at("self_seconds").number);
  const JsonValue& children = outer.at("children");
  ASSERT_EQ(children.array.size(), 1u);
  EXPECT_EQ(children.array[0].at("name").string, "child");
  EXPECT_EQ(children.array[0].at("bytes").number, 4096.0);

  // Counters and histograms.
  EXPECT_EQ(root.at("counters").at("json.counter").number, 17.0);
  const JsonValue& hist = root.at("histograms").at("json.hist");
  EXPECT_EQ(hist.at("count").number, 10.0);
  EXPECT_EQ(hist.at("sum").number, 55.0);
  EXPECT_EQ(hist.at("min").number, 1.0);
  EXPECT_EQ(hist.at("max").number, 10.0);
  EXPECT_NEAR(hist.at("p50").number, 5.0, 0.25 * 5.0 + 1.0);
}

TEST_F(ObsTest, RetriedQueryAppearsInReport) {
  // A query that survives a dropped message via pipeline retry must leave
  // its trail in the telemetry report: the fault, the retry, the timeout.
  Rng rng(21);
  Dataset data = GenerateWarfarinCohort(300, rng);
  PipelineConfig config;
  config.classifier = ClassifierKind::kNaiveBayes;
  config.recv_timeout_seconds = 1.0;
  config.retry_backoff_seconds = 0.001;
  config.fault_plan.kind = FaultKind::kDrop;
  config.fault_plan.seed = 2;
  // The query's label-OT flight, the first client send past the base OTs
  // (the disclosure leaves with the masked seed pairs).
  config.fault_plan.first_op = kBaseOtClientSends;
  config.fault_plan.max_faults = 1;
  SecureClassificationPipeline pipeline(data, config);
  const std::vector<int>& row = data.row(3);
  SmcRunStats stats = pipeline.Classify(row);
  EXPECT_EQ(stats.predicted_class, pipeline.PlaintextPredict(row));
  EXPECT_EQ(pipeline.faults_injected(), 1u);
  EXPECT_GE(obs::GetCounter("pipeline.retries").value(), 1u);
  EXPECT_GE(obs::GetCounter("faults.injected").value(), 1u);

  std::string text = obs::RenderText();
  EXPECT_NE(text.find("pipeline.retries"), std::string::npos);
  EXPECT_NE(text.find("faults.injected"), std::string::npos);
  std::string json = obs::RenderJson();
  EXPECT_NE(json.find("\"pipeline.retries\""), std::string::npos);
  EXPECT_NE(json.find("\"faults.injected\""), std::string::npos);
}

}  // namespace
}  // namespace pafs
