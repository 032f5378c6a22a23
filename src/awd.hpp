// awd.hpp — the library's stable public surface (README "Public API &
// versioning").
//
// Everything re-exported here under `awd::v1` is the API the project
// commits to: applications include this one header and use the plain
// `awd::` names (v1 is an inline namespace, so `awd::DetectionSystem` and
// `awd::v1::DetectionSystem` are the same type — but the mangled symbols
// carry the version, so a future `v2` can change signatures side by side
// while `v1` keeps linking).  Internal headers (`core/…`, `detect/…`, …)
// remain includable for composition and research, with no stability
// promise beyond what this facade re-exports.
//
// The surface, by layer:
//   * outcomes    — Status / StatusCode / Result<T>
//   * scenarios   — SimulatorCase, AttackKind, the Table 1 bank
//   * pipeline    — DetectionSystem (+ options), StepRecord / Trace
//   * scoring     — RunMetrics, compute_metrics, StreamingMetrics
//   * campaigns   — ExperimentSpec / SweepSpec runners (Table 2 / Fig. 7)
//   * reachability— reach::Backend deadline strategies (box / precomputed
//                   table) and the offline table pipeline
//   * calibration — threshold / max-window profiling
//   * serving     — StreamEngine: batched multi-stream detection
//   * tuning      — auto-tuner to a target FAR, ROC/AUC sweeps
//   * tooling     — CSV export, observability session
#pragma once

#include "core/calibration.hpp"
#include "core/config.hpp"
#include "core/csv.hpp"
#include "core/detection_system.hpp"
#include "core/experiment.hpp"
#include "core/metrics.hpp"
#include "core/parallel.hpp"
#include "core/status.hpp"
#include "fault/fault.hpp"
#include "fault/health.hpp"
#include "linalg/kernels.hpp"  // level stub read by perfbench's host record
#include "obs/obs.hpp"
#include "reach/backend.hpp"
#include "reach/deadline.hpp"
#include "reach/table.hpp"
#include "serve/engine_ckpt.hpp"
#include "serve/forensics.hpp"
#include "serve/stream_engine.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"
#include "tune/roc.hpp"
#include "tune/tuner.hpp"

namespace awd {
inline namespace v1 {

// Outcomes.
using core::Result;
using core::Status;
using core::StatusCode;

// Scenarios (Table 1) and the vector/matrix types their fields expose.
using linalg::Matrix;
using linalg::Vec;

using core::AttackKind;
using core::SimulatorCase;
using core::simulator_case;
using core::table1_cases;

// The detection pipeline (Fig. 1).
using core::DetectionSystem;
using core::DetectionSystemOptions;
using sim::StepRecord;
using sim::Trace;

// Scoring (§6).
using core::compute_metrics;
using core::MetricsOptions;
using core::RunMetrics;
using core::StreamingMetrics;
using core::Strategy;

// Monte-Carlo campaigns (Table 2 / Fig. 7).
using core::CellResult;
using core::CellRunOutcome;
using core::ExperimentSpec;
using core::fixed_window_sweep;
using core::run_cell;
using core::run_cell_once;
using core::SweepSpec;
using core::WindowSweepPoint;

// Reachability deadline backends (§3 / DESIGN.md §17).  Backend is the
// strategy interface; make_backend builds the kind a BackendSpec names.
// The table pipeline (build_table → encode_table → decode_table →
// make_table_backend) is the offline precompute flow `awd reach` runs.
using core::make_backend_spec;
using reach::Backend;
using reach::BackendKind;
using reach::BackendSpec;
using reach::BoxBackend;
using reach::build_table;
using reach::DeadlineConfig;
using reach::DeadlineTable;
using reach::decode_table;
using reach::encode_table;
using reach::make_backend;
using reach::make_table_backend;
using reach::spec_fingerprint;
using reach::TableBackend;
using reach::TableGridConfig;

// Calibration (§4.3 operating points).
using core::calibrate_threshold;
using core::MaxWindowOptions;
using core::MaxWindowProfile;
using core::profile_max_window;
using core::ThresholdCalibrationOptions;

// Fault model and degradation states.
using fault::FaultKind;
using fault::FaultPlan;
using fault::HealthState;

// Batched multi-stream serving (DESIGN.md §12).
using serve::EngineSnapshot;
using serve::StreamEngine;
using serve::StreamEngineOptions;
using serve::StreamId;
using serve::StreamResult;
using serve::StreamSpec;
using serve::StreamState;
using serve::StreamStatus;

// Checkpoint / restore (DESIGN.md §13).
using serve::describe_snapshot;
using serve::SnapshotInfo;
using serve::SnapshotStreamInfo;

// Forensics & introspection (DESIGN.md §15).
using serve::decode_dump;
using serve::DumpReason;
using serve::encode_dump;
using serve::EngineIntrospection;
using serve::ForensicsDump;
using serve::introspection_json;
using serve::replay_dump;
using serve::ReplayReport;
using serve::ShardIntrospection;

// Auto-tuning & adversarial corpus (DESIGN.md §16).
using tune::FarSample;
using tune::measure_far;
using tune::roc_sweep;
using tune::RocCurve;
using tune::RocOptions;
using tune::RocPoint;
using tune::tune_detector;
using tune::TuneOptions;
using tune::TuneReport;

// Tooling.
using core::write_trace_csv;
using obs::ObsSession;

}  // namespace v1
}  // namespace awd
