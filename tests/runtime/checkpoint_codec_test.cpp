// The JSON codec on real checkpoint text: the writer reproduces a
// parsed session checkpoint byte for byte, and a mutated checkpoint
// ends in a restore or an InvalidArgument, never in a crash, a hang or
// another exception type (the ctest TIMEOUT catches the hang).
#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <random>
#include <regex>
#include <string>
#include <typeinfo>

#include "core/paper.hpp"
#include "core/scenario_io.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/fleet_session.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace gridctl::runtime {
namespace {

// Drives a session on the calling thread until it stops.
RuntimeCheckpoint run_session(const core::Scenario& scenario,
                              std::uint64_t stop_after_step) {
  RuntimeOptions options;
  options.stop_after_step = stop_after_step;
  FleetSession session(scenario, options);
  util::RoleGuard stream(session.stream_role());
  util::RoleGuard control(session.control_role());
  while (!session.done()) {
    const auto event = session.poll();
    if (!event) break;
    session.apply(*event);
  }
  return session.checkpoint();
}

TEST(CheckpointCodec, WriterReproducesAParsedSessionCheckpoint) {
  // 600 steps of the paper's window at ts = 10 s on the condensed
  // backend: a checkpoint of a few hundred KB of real trace numbers.
  core::Scenario scenario =
      core::paper::smoothing_scenario(/*ts_s=*/units::Seconds{10.0});
  scenario.duration_s = units::Seconds{6000.0};
  scenario.controller.solver.backend = solvers::LsqBackend::kCondensed;
  const RuntimeCheckpoint checkpoint = run_session(scenario, 600);
  ASSERT_EQ(checkpoint.next_step, 600u);

  for (const int indent : {-1, 1}) {
    const std::string text = dump_json(checkpoint.to_json(), indent);
    EXPECT_EQ(dump_json(parse_json(text), indent), text);
    EXPECT_EQ(
        dump_json(RuntimeCheckpoint::from_json(parse_json(text)).to_json(),
                  indent),
        text);
  }
}

// The hour-1 checkpoint of a fleet with every kind of resume state:
// batteries and a demand-charge bill (scenarios/demand_charge.json),
// RLS workload predictors and the slow sleep loop, at ts = 120 s.
core::Scenario hour_one_scenario() {
  core::Scenario scenario = core::load_scenario_file(
      std::string(GRIDCTL_SCENARIO_DIR) + "/demand_charge.json");
  scenario.ts_s = units::Seconds{120.0};
  scenario.duration_s = units::Seconds{2.0 * 3600.0};
  scenario.controller.predict_workload = true;
  scenario.controller.ar_order = 2;
  scenario.controller.sleep_every_k_steps = 3;
  return scenario;
}

void mutate(std::string& text, std::mt19937_64& rng) {
  static constexpr char kJsonBytes[] = "{}[],:\"\\-+.eE0123456789 \n\tnultrfas";
  const auto pick_byte = [&] {
    return kJsonBytes[rng() % (sizeof(kJsonBytes) - 1)];
  };
  const int edits = 1 + static_cast<int>(rng() % 3);
  for (int e = 0; e < edits && !text.empty(); ++e) {
    const std::size_t at = rng() % text.size();
    switch (rng() % 6) {
      case 0:  // flip one bit
        text[at] = static_cast<char>(text[at] ^ (1 << (rng() % 8)));
        break;
      case 1:  // overwrite with a byte that means something to JSON
        text[at] = pick_byte();
        break;
      case 2:
        text.insert(text.begin() + static_cast<std::ptrdiff_t>(at),
                    pick_byte());
        break;
      case 3:
        text.insert(text.begin() + static_cast<std::ptrdiff_t>(at),
                    static_cast<char>(rng()));
        break;
      case 4:
        text.erase(at, 1 + rng() % 16);
        break;
      case 5:
        text.resize(at);
        break;
    }
  }
}

const RuntimeCheckpoint& hour_one_checkpoint() {
  static const RuntimeCheckpoint checkpoint =
      run_session(hour_one_scenario(), 30);
  return checkpoint;
}

TEST(CheckpointCodec, OutOfRangeIntegersAndWrappingMatrixShapesAreRejected) {
  const std::string text = dump_json(hour_one_checkpoint().to_json());
  // A count beyond 2^64 has no uint64 value (the cast was undefined).
  const std::string huge_count = std::regex_replace(
      text, std::regex(R"("step_count":[^,}]+)"), R"("step_count":1e300)");
  ASSERT_NE(huge_count, text);
  EXPECT_THROW(RuntimeCheckpoint::from_json(parse_json(huge_count)),
               InvalidArgument);
  // 2^32 x 2^32 wraps to 0 elements and used to pass the size check
  // against an empty data array.
  const std::string wrapping = std::regex_replace(
      text,
      std::regex(
          R"("covariance":\{"cols":[^,]+,"data":\[[^\]]*\],"rows":[^}]+\})"),
      R"("covariance":{"cols":4294967296,"data":[],"rows":4294967296})");
  ASSERT_NE(wrapping, text);
  EXPECT_THROW(RuntimeCheckpoint::from_json(parse_json(wrapping)),
               InvalidArgument);
}

// Decoding `checkpoint`'s text (and validating it against `scenario`)
// must throw InvalidArgument whose message contains `needle`.
void expect_rejected(const RuntimeCheckpoint& checkpoint,
                     const core::Scenario& scenario, const std::string& needle) {
  const std::string text = dump_json(checkpoint.to_json());
  try {
    RuntimeCheckpoint::from_json(parse_json(text)).validate_for(scenario);
    ADD_FAILURE() << "accepted a checkpoint that should fail on " << needle;
  } catch (const InvalidArgument& error) {
    EXPECT_NE(std::string(error.what()).find(needle), std::string::npos)
        << error.what();
  }
}

TEST(CheckpointCodec, HostilePredictorStateIsRejectedAtDecode) {
  const core::Scenario scenario = hour_one_scenario();
  const RuntimeCheckpoint& good = hour_one_checkpoint();
  ASSERT_GE(good.controller.predictors.size(), 2u);
  ASSERT_EQ(good.controller.predictors[1].history.size(), 2u);

  // A negative sample in a full history would enter the AR regressor; in
  // a short one it became the first resumed reference's demand.
  RuntimeCheckpoint negative = good;
  negative.controller.predictors[1].history[1] = -250.0;
  expect_rejected(negative, scenario, "controller.predictors[1].history[1]");
  negative.controller.predictors[1].history.resize(1);
  negative.controller.predictors[1].history[0] = -1.0;
  expect_rejected(negative, scenario, "controller.predictors[1].history[0]");

  // theta and covariance of different orders.
  RuntimeCheckpoint shapes = good;
  shapes.controller.predictors[0].theta.push_back(0.5);
  expect_rejected(shapes, scenario, "controller.predictors[0].covariance");

  // A consistent estimator of another order than the scenario's ar_order.
  RuntimeCheckpoint order = good;
  auto& predictor = order.controller.predictors[0];
  predictor.theta.assign(3, 0.1);
  predictor.covariance = linalg::Matrix::identity(3);
  expect_rejected(order, scenario, "controller.predictors[0].theta has order 3");

  // More history than the order.
  RuntimeCheckpoint history = good;
  history.controller.predictors[2].history.push_back(10.0);
  expect_rejected(history, scenario, "controller.predictors[2].history holds 3");

  // The untouched checkpoint still decodes and validates.
  RuntimeCheckpoint::from_json(parse_json(dump_json(good.to_json())))
      .validate_for(scenario);
}

TEST(CheckpointCodec, MutatedCheckpointsRestoreOrThrowInvalidArgument) {
  const core::Scenario scenario = hour_one_scenario();
  const RuntimeCheckpoint& checkpoint = hour_one_checkpoint();
  ASSERT_FALSE(checkpoint.controller.predictors.empty());
  ASSERT_FALSE(checkpoint.trace.battery_soc_j.empty());
  // save_checkpoint's layout and the compact one.
  const std::string texts[] = {dump_json(checkpoint.to_json(), 1),
                               dump_json(checkpoint.to_json())};

  std::mt19937_64 rng(20120618);
  std::size_t restored = 0, rejected = 0;
  for (int i = 0; i < 20000; ++i) {
    std::string text = texts[i % 2];
    mutate(text, rng);
    try {
      RuntimeCheckpoint::from_json(parse_json(text)).validate_for(scenario);
      ++restored;
    } catch (const InvalidArgument&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutation " << i << " threw " << typeid(e).name()
                    << ": " << e.what();
    }
  }
  // Both outcomes occur: most edits break the syntax or the schema, and
  // edits inside numbers and whitespace still restore.
  EXPECT_GT(restored, 1000u);
  EXPECT_GT(rejected, 10000u);
}

}  // namespace
}  // namespace gridctl::runtime
