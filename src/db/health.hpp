// Engine health lifecycle as a pure state machine: healthy -> degraded
// (read-only, sticky) -> recover().
//
// Every storage-failure site in the commit/checkpoint pipeline maps to a
// fixed policy response — fail the one transaction cleanly, or fail safe
// into degraded mode — and that mapping lives here, not scattered through
// engine.cpp.  The Engine consults failure_response()/HealthModel at each
// site; the bounded model checker (analyze/model_check.hpp) drives the
// same HealthModel through every interleaving of fault events and checks
// that degraded mode is sticky until an explicit recover() and that no
// acknowledged commit is lost.  The `sticky` knob exists only so the
// checker can demonstrate the counterexample when stickiness is broken.
#pragma once

#include <string>
#include <string_view>

namespace fem2::db {

/// Where in the storage pipeline an I/O failure surfaced.
enum class FailureSite {
  AppendRollbackOk,        ///< log append failed; rollback restored the log
  AppendRollbackFailed,    ///< log append failed AND rollback failed
  CommitFsyncFailed,       ///< commit-point fsync failed (fsync-gate hazard)
  CheckpointSnapshotWriteFailed,  ///< snapshot not published; log intact
  CheckpointLogResetFailed,       ///< snapshot published; log untruncatable
};

/// The policy response at a failure site.
enum class FailureResponse {
  FailOperation,  ///< surface the error; the engine stays healthy
  Degrade,        ///< fail safe: read-only degraded mode until recover()
};

/// The fixed site -> response policy (see DESIGN.md on fail-safe storage).
FailureResponse failure_response(FailureSite site);

class HealthModel {
 public:
  /// `sticky` is the model-checker defect knob: production engines are
  /// always sticky (degraded mode survives until recover()).
  explicit HealthModel(bool sticky = true) : sticky_(sticky) {}

  bool degraded() const { return degraded_; }
  const std::string& reason() const { return reason_; }

  struct Transition {
    FailureResponse response = FailureResponse::FailOperation;
    bool entered_degraded = false;  ///< this event crossed healthy->degraded
  };

  /// An I/O failure surfaced at `site`; applies the policy.
  Transition on_failure(FailureSite site, std::string reason);

  /// A storage operation completed successfully.  Healthy engines ignore
  /// this; a non-sticky (defective) model silently clears degraded mode.
  /// Returns true when degraded mode was wrongly cleared.
  bool on_success();

  /// Explicit recover(): the only legitimate exit from degraded mode.
  void on_recover();

 private:
  bool sticky_ = true;
  bool degraded_ = false;
  std::string reason_;
};

}  // namespace fem2::db
