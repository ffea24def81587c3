// The benchmark's four workloads and the layer ladder that explains them.
//
//   session           app::run_session: DPSS pipes -> 4 back-end PEs ->
//                     IBRAVR -> viewer, overlapped, fixed viewer angle.
//                     One op is one timestep the viewer shows.
//   warm_read         4 KiB preads of a memory-resident rf=1 dataset over
//                     the TCP reactor front door: per-request cost.
//   rf3_write         64 KiB whole-block overwrites of an rf=3 dataset,
//                     chain-replicated server to server.
//   ec_degraded_read  64 KiB preads of an EC(4,2) dataset with one of six
//                     servers dead, so about one read in six reconstructs.
//
// Every input derives from the workload seed; the program under test only
// sees the generated datasets, offsets and payloads.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "codec/ec_profile.h"
#include "common.h"
#include "ibravr/payload.h"
#include "render/raycast.h"
#include "scenegraph/rasterizer.h"
#include "scenegraph/scenegraph.h"
#include "vol/dataset.h"

namespace perfbench {

// Closed-loop clients (threads), one connection each: the host has 4 cores.
inline constexpr int kClients = 4;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  // Human-readable lines printed before the result (sample counts, the
  // ladder table, self times, the residual verdict).
  std::vector<std::string> notes;
  SpanLog spans;
};

// One storage workload's deployment and request shape.
struct StorageShape {
  const char* name = "";
  int servers = 4;
  std::uint32_t block_bytes = 64 * 1024;
  std::uint32_t replication = 1;
  visapult::codec::EcProfile ec;
  bool write = false;
  std::size_t op_bytes = 64 * 1024;  // one op reads/writes one whole block
  bool kill_one = false;             // kill a server after ingest
  visapult::vol::Dims dims{128, 64, 64};
  int timesteps = 8;
};

// nullptr for "session" and unknown names.
const StorageShape* storage_shape(const std::string& workload);
bool known_workload(const std::string& workload);

// The session workload's inputs.  The viewer angle is fixed; the back end
// runs 4 PEs.
inline constexpr float kViewerAngle = 0.0f;
inline constexpr int kSessionPes = 4;
struct SessionShape {
  visapult::vol::Dims dims{96, 48, 48};
  int timesteps = 0;
  visapult::render::RenderOptions render;
};
SessionShape session_shape(double seconds);
visapult::vol::DatasetDesc dataset_for(const std::string& workload,
                                       std::uint64_t seed,
                                       visapult::vol::Dims dims,
                                       int timesteps);

// The dataset file's bytes: the timesteps back to back, as ingested.
std::vector<std::uint8_t> reference_bytes(const visapult::vol::DatasetDesc& desc);

// What the back end produces for timestep `t` (each PE's payloads, the way
// run_backend_pe renders them), the scene the viewer holds once every PE's
// payload for that frame has arrived, and the viewer's camera.  Built from
// the dataset descriptor alone -- no DPSS, back end or viewer session --
// this is the reference the session's final image must equal.
struct SessionFrame {
  std::vector<visapult::ibravr::LightPayload> light;
  std::vector<visapult::ibravr::HeavyPayload> heavy;
};
SessionFrame session_frame(const visapult::vol::DatasetDesc& desc, int t,
                           const SessionShape& shape);
std::unique_ptr<visapult::scenegraph::SceneGraph> session_scene(
    const SessionFrame& frame);
visapult::scenegraph::Camera session_camera(
    const visapult::vol::DatasetDesc& desc, const SessionShape& shape);

Outcome run_storage(const Options& options, const StorageShape& shape);
Outcome run_session_workload(const Options& options);

// Isolated medians of each layer's public call with the workload's request
// shape (rungs), in the rung's own unit, plus the spans that timed them.
struct Ladder {
  std::map<std::string, double> rungs;
  SpanLog spans;
};
Ladder run_ladder(const std::string& workload, std::uint64_t seed,
                  double session_seconds);

// Sum of the rung medians on one op's blocking path, in milliseconds.
double ladder_path_ms(const std::string& workload, const Ladder& ladder,
                      double session_seconds);

}  // namespace perfbench
