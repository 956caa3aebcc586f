package store

import "faust/internal/obs"

// WAL observability: how long syncs take, how well flushes batch,
// and how much record data flows. All handles live in the process-wide
// default registry and are resolved once here.
var (
	// One observation per fsync/fdatasync of WAL data — the dominant cost
	// of durable operation handling (the paper's server-side bottleneck
	// once signatures are off the critical path).
	smFsyncNs = obs.Default().Histogram("faust_wal_fsync_ns")

	// One observation per WAL flush: end-to-end batch write
	// latency (prealloc + write + optional sync) and batch size in bytes.
	smFlushNs    = obs.Default().Histogram("faust_wal_flush_ns")
	smBatchBytes = obs.Default().Histogram("faust_wal_batch_bytes")

	smAppends = obs.Default().Counter("faust_wal_appends_total")
	smFlushes = obs.Default().Counter("faust_wal_flushes_total")
)

func init() {
	r := obs.Default()
	r.Help("faust_wal_fsync_ns", "WAL fsync/fdatasync latency, nanoseconds")
	r.Help("faust_wal_flush_ns", "WAL flush latency (write+sync), nanoseconds")
	r.Help("faust_wal_batch_bytes", "bytes of framed records per WAL flush")
	r.Help("faust_wal_appends_total", "WAL records appended")
	r.Help("faust_wal_flushes_total", "WAL flushes that wrote a batch")
}
