#include "db/health.hpp"

namespace fem2::db {

FailureResponse failure_response(FailureSite site) {
  switch (site) {
    case FailureSite::AppendRollbackOk:
      // The log is exactly as it was before the transaction: a clean
      // failure (an ENOSPC disk fails every commit this way without
      // degrading the engine).
      return FailureResponse::FailOperation;
    case FailureSite::AppendRollbackFailed:
      // The log holds a torn frame we could not remove.
      return FailureResponse::Degrade;
    case FailureSite::CommitFsyncFailed:
      // The fsync-gate hazard: records sit in the file undurable, and the
      // next successful fsync would durably publish a failed commit.
      return FailureResponse::Degrade;
    case FailureSite::CheckpointSnapshotWriteFailed:
      // Nothing published; the previous snapshot plus the intact log
      // still recover everything.
      return FailureResponse::FailOperation;
    case FailureSite::CheckpointLogResetFailed:
      // Snapshot published but the log's in-memory counters may no
      // longer match the file: stop trusting it.
      return FailureResponse::Degrade;
  }
  return FailureResponse::Degrade;  // unreachable; fail safe
}

HealthModel::Transition HealthModel::on_failure(FailureSite site,
                                                std::string reason) {
  Transition t;
  t.response = failure_response(site);
  if (t.response == FailureResponse::Degrade && !degraded_) {
    degraded_ = true;
    reason_ = std::move(reason);
    t.entered_degraded = true;
  }
  return t;
}

bool HealthModel::on_success() {
  if (sticky_ || !degraded_) return false;
  degraded_ = false;  // the defect: success masks an earlier degrade
  reason_.clear();
  return true;
}

void HealthModel::on_recover() {
  degraded_ = false;
  reason_.clear();
}

}  // namespace fem2::db
