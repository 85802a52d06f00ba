#ifndef LAZYSI_REPLICATION_PRIMARY_H_
#define LAZYSI_REPLICATION_PRIMARY_H_

#include <cstdint>
#include <utility>

#include "engine/database.h"
#include "replication/propagator.h"
#include "replication/secondary.h"

namespace lazysi {
namespace replication {

/// The primary site of the lazy master architecture (Figure 1): the primary
/// copy of the database plus the update propagator tailing its logical log.
/// All update transactions execute here; secondaries attach their update
/// queues and receive the start/commit schedule lazily.
class Primary {
 public:
  /// The propagator's durability read barrier comes from `db`: while a
  /// durable log is attached, replication stays behind its flushed-LSN
  /// watermark, so no record reaches a secondary before it reaches disk.
  explicit Primary(engine::Database* db,
                   PropagatorOptions options = PropagatorOptions())
      : db_(db), propagator_(db->log(), WithReadBarrier(db, options)) {}

  /// Attaches a secondary that is already consistent with the propagator's
  /// current position (e.g. it was attached before any update ran). An
  /// active `filter` restricts the stream to the secondary's partitions.
  void AttachSecondary(Secondary* secondary, SinkFilter filter = SinkFilter()) {
    propagator_.AttachSink(secondary->update_queue(), std::move(filter));
  }

  void Start() { propagator_.Start(); }
  void Stop() { propagator_.Stop(); }

  engine::Database* db() { return db_; }
  Propagator* propagator() { return &propagator_; }

  /// Executes a "dummy transaction" at the primary and returns the latest
  /// committed primary timestamp; Section 4 uses this to re-seed
  /// seq(DBsec) after a secondary failure.
  Timestamp DummyTransactionSeq() {
    auto t = db_->Begin(/*read_only=*/true);
    const Timestamp seq = db_->LatestCommitTs();
    (void)t->Commit();
    return seq;
  }

 private:
  static PropagatorOptions WithReadBarrier(engine::Database* db,
                                           PropagatorOptions options) {
    options.read_limit = [db]() -> std::size_t {
      wal::DurableLog* durable = db->durable();
      return durable != nullptr
                 ? static_cast<std::size_t>(durable->flushed_end())
                 : SIZE_MAX;
    };
    return options;
  }

  engine::Database* db_;
  Propagator propagator_;
};

}  // namespace replication
}  // namespace lazysi

#endif  // LAZYSI_REPLICATION_PRIMARY_H_
