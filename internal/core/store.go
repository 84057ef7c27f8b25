// Package core is the self-organizing RDF store: it ties ingestion,
// characteristic-set discovery, subject clustering, the relational
// catalog, and the two query-plan families into one engine — the system
// Figure 1 of the paper sketches inside the MonetDB kernel.
//
// Lifecycle: load triples (bulk or trickle), call Organize to let the
// store discover and materialize its emergent schema, then query in
// either plan mode. After Organize the store stays live: Add and Delete
// land in a mutable delta layer (per-table delta rows behind the sealed
// segments, tombstone bitmaps, and the irregular leftover store), each
// changed subject is re-assigned to an existing CS table by incremental
// characteristic-set matching, and Compact merges the delta back into
// freshly sealed segments — so the schema keeps fitting the data without
// a re-Organize. The triple projections are not re-sorted on a write
// either: the refresh that makes a write batch visible merges it into
// each projection in one linear pass, O(N+k) for N stored and k written
// triples, mostly bulk memory copy.
//
// Concurrency: queries execute against an immutable epoch snapshot
// (catalog version + index set) taken under the store mutex at plan
// time, so readers never block writers and a stream started before an
// Add/Delete/Compact keeps a consistent view. Only Organize — which
// renumbers the dictionary — excludes readers, via a reader gate.
package core

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"srdf/internal/cluster"
	"srdf/internal/colstore"
	"srdf/internal/cs"
	"srdf/internal/dict"
	"srdf/internal/exec"
	"srdf/internal/fault"
	"srdf/internal/nt"
	"srdf/internal/plan"
	"srdf/internal/relational"
	"srdf/internal/sparql"
	"srdf/internal/storage"
	"srdf/internal/triples"
)

// DefaultCompactThreshold is the delta size (delta rows + tombstones)
// past which a refresh triggers an automatic Compact.
const DefaultCompactThreshold = 4096

// Options configures a Store.
type Options struct {
	// CS tunes schema discovery.
	CS cs.Options
	// Cluster tunes subject clustering.
	Cluster cluster.Options
	// PoolPages caps the simulated buffer pool (<=0: unlimited).
	PoolPages int
	// PoolBytes caps the real memory the buffer pool lets decoded
	// sealed segments occupy (<=0: unlimited). Past the budget, the
	// least-recently-used unpinned segments are evicted back to their
	// on-disk encoded form and fault in again on the next touch.
	PoolBytes int64
	// Dedup removes duplicate triples on Organize (RDF graphs are sets).
	Dedup bool
	// Parallelism is the morsel-scan worker count for RDFscan; <=1
	// scans sequentially.
	Parallelism int
	// CompactThreshold is the delta size (delta rows + tombstones) that
	// auto-triggers Compact during a refresh; 0 means
	// DefaultCompactThreshold, negative disables auto-compaction.
	CompactThreshold int
	// WALPath attaches a write-ahead log: every trickle Add/Delete is
	// recorded lexically and fsynced at batch boundaries (before a
	// refresh publishes, at checkpoints, and on Close), so the delta
	// layer survives crashes. Existing records are replayed through the
	// ordinary update path when the store is created or opened. Bulk
	// loads are not logged — checkpoint them with Save.
	WALPath string
	// PlanCache sizes the prepared-plan cache (entries). 0 uses
	// DefaultPlanCacheSize; negative disables caching.
	PlanCache int
	// FS routes every durability syscall (WAL, snapshot) through an
	// injectable filesystem — the fault-injection seam. Nil uses the
	// real one.
	FS fault.FS
	// Retry bounds immediate retries of failed durability writes
	// before the store latches read-only. Zero uses
	// storage.DefaultRetry.
	Retry storage.RetryPolicy
	// ProbeInterval is the base backoff between recovery probes while
	// read-only (doubles per failure, capped at 32×). 0 uses
	// DefaultProbeInterval.
	ProbeInterval time.Duration
}

// DefaultPlanCacheSize is the prepared-plan cache capacity when
// Options.PlanCache is 0.
const DefaultPlanCacheSize = 256

// DefaultOptions returns the standard configuration.
func DefaultOptions() Options {
	return Options{
		CS:      cs.DefaultOptions(),
		Cluster: cluster.DefaultOptions(),
		Dedup:   true,
	}
}

// QueryOptions selects the plan family per query, mirroring Table I's
// configuration axes.
type QueryOptions struct {
	Mode     plan.Mode
	ZoneMaps bool
	// ForceAlgo pins the physical join algorithm ("hash", "merge",
	// "rdfjoin") wherever applicable — for testing and plan-quality
	// comparison, not production use.
	ForceAlgo string
	// NoBloom disables runtime bloom filters on hash joins.
	NoBloom bool
	// ForceOrder fixes the left-deep star join order by subject
	// variable.
	ForceOrder []string
	// MemLimit bounds the bytes the query's materializing operators
	// (hash-join builds, aggregation state, sort rows, DISTINCT keys)
	// may retain; 0 is unlimited. An exceeded budget fails the one query
	// with exec.ErrMemBudget — concurrent queries and the store itself
	// are unaffected. Not part of the plan-cache key: it changes
	// admission, not the plan.
	MemLimit int64
}

// snapshot is the immutable state one query executes against: once
// published it is never mutated — writers build replacements (writes
// are merged into fresh projection arrays, the catalog is cloned
// copy-on-write), so concurrent readers keep a consistent epoch.
type snapshot struct {
	epoch           uint64
	dict            *dict.Dictionary
	idx             *triples.IndexSet
	schema          *cs.Schema
	cat             *relational.Catalog
	organized       bool
	literalsOrdered bool
	ctx             *exec.Ctx
}

func (sn *snapshot) view() *plan.StoreView {
	return &plan.StoreView{
		Dict:            sn.dict,
		Idx:             sn.idx,
		Schema:          sn.schema,
		Cat:             sn.cat,
		Organized:       sn.organized,
		LiteralsOrdered: sn.literalsOrdered,
	}
}

// Store is the self-organizing RDF store.
type Store struct {
	// mu guards all organizational state. Writers hold it briefly;
	// queries hold it only through refresh + planning, then execute
	// against the published snapshot without any store lock.
	mu sync.Mutex
	// gate holds queries (read side, for their full lifetime) apart from
	// Organize (write side): Organize renumbers the shared dictionary in
	// place, the one mutation snapshots cannot hide.
	gate sync.RWMutex

	opts Options

	dict  *dict.Dictionary
	table *triples.Table
	idx   *triples.IndexSet
	pool  *colstore.BufferPool
	// blob is the mapped (or heap-fallback) snapshot backing the lazy
	// segments of an opened store; nil for stores built in memory. It
	// must stay open while any reader can still fault a segment in, so
	// it is released only on Close.
	blob *storage.Blob

	schema    *cs.Schema
	clusterIn *cluster.Info
	cat       *relational.Catalog
	organized bool
	// literalsOrdered goes false when trickle inserts mint new literals
	// after Organize.
	literalsOrdered bool

	// pendAdds and pendDels are the write batch not yet folded into
	// idx, and the only record that idx is stale: the number of copies
	// of each triple appended to the table since idx was last brought up
	// to date, and the triples whose every copy was removed from it since
	// (NumTriples applies deletes ahead of the refresh). Presence checks
	// consult both before trusting idx. Both stay empty while idx is nil:
	// the full build that replaces a missing idx covers everything.
	pendAdds map[triples.Triple]int
	pendDels map[triples.Triple]struct{}
	// idxStats counts index maintenance (full builds, merges, time).
	idxStats IndexStats
	// touched collects subjects whose residence must be re-resolved by
	// the next refresh (post-Organize adds and deletes).
	touched map[dict.OID]struct{}
	// delPending holds requested deletions, applied in one batch pass.
	delPending map[triples.Triple]struct{}

	epoch uint64
	snap  *snapshot

	// snapshotPath is the checkpoint target: once set (by Save or
	// OpenStore), Organize and Compact write a fresh snapshot there and
	// truncate the WAL. wal is nil when no log is attached. walErr
	// records the last sync/truncate failure (the pending batch stays
	// buffered for the retry); walLost records an operation that could
	// not be logged at all, which only a successful snapshot checkpoint
	// — capturing the in-memory state the log missed — repairs. Either
	// one past the retry budget latches the explicit read-only mode
	// below instead of fail-stopping queries.
	snapshotPath string
	wal          *storage.WAL
	walErr       error
	walLost      error
	// fs is the injectable filesystem all durability I/O goes through.
	fs fault.FS

	// Read-only latch (graceful degradation): when durability writes
	// fail past the retry budget the store rejects writes with
	// ErrReadOnly and keeps serving reads from the last published
	// epoch; a background prober (probeC non-nil while running)
	// re-attempts the failed operation with exponential backoff and
	// un-latches when the disk recovers. ckptPending marks a failed
	// checkpoint that recovery must re-run.
	ro          bool
	roCause     error
	roSince     time.Time
	roProbes    int
	roNext      time.Time
	probeC      chan struct{}
	ckptPending bool

	// ckptMu serializes checkpoint file I/O, which happens with mu
	// RELEASED so a multi-second snapshot write never stalls concurrent
	// queries or trickle writes. Lock order is strictly mu → unlock mu →
	// ckptMu (never ckptMu while holding mu). ckptSeq numbers checkpoint
	// attempts (under mu); ckptWritten (under ckptMu) is the highest
	// attempt whose bytes reached disk, so an attempt overtaken while
	// waiting for ckptMu skips its stale write instead of clobbering a
	// newer snapshot.
	ckptMu      sync.Mutex
	ckptSeq     uint64
	ckptWritten uint64

	// workload counts, per predicate IRI, how often queries put a range
	// or equality filter on that predicate's object — the signal the
	// next Organize uses to choose subject-clustering sort keys
	// (research question iii / the §II-D acknowledgment that sort-key
	// choice needs workload analysis).
	workload map[string]int

	// plans is the prepared-plan cache (nil when disabled), guarded by
	// mu like the rest of the planning state.
	plans *planCache

	// qlog is the structured query log: a ring of completed
	// QueryRecords plus cumulative workload counters, self-locked (one
	// short hold per completed query).
	qlog *queryLog

	// born marks store creation, for uptime reporting.
	born time.Time
}

// NewStore creates an empty store. With Options.WALPath set, an existing
// log is replayed into the new store and subsequent trickle writes are
// recorded; a log that cannot be opened latches an error surfaced by the
// first Save, Close, or checkpoint.
func NewStore(opts Options) *Store {
	s := newBareStore(opts)
	if opts.WALPath != "" {
		s.attachWALLocked(opts.WALPath)
	}
	return s
}

func newBareStore(opts Options) *Store {
	cacheCap := opts.PlanCache
	if cacheCap == 0 {
		cacheCap = DefaultPlanCacheSize
	}
	fs := opts.FS
	if fs == nil {
		fs = fault.OS()
	}
	return &Store{
		opts:       opts,
		fs:         fs,
		dict:       dict.New(),
		table:      triples.NewTable(0),
		pool:       newPool(opts),
		touched:    make(map[dict.OID]struct{}),
		pendAdds:   make(map[triples.Triple]int),
		pendDels:   make(map[triples.Triple]struct{}),
		delPending: make(map[triples.Triple]struct{}),
		workload:   make(map[string]int),
		plans:      newPlanCache(cacheCap),
		qlog:       newQueryLog(DefaultQueryLogSize),
		born:       time.Now(),
	}
}

// newPool builds the store's buffer pool from the options: the page
// simulation sized by PoolPages, the real decoded-byte budget by
// PoolBytes.
func newPool(opts Options) *colstore.BufferPool {
	p := colstore.NewPool(opts.PoolPages)
	p.SetBudget(opts.PoolBytes)
	return p
}

// OpenStore loads a snapshot written by Save and attaches it as the
// store's checkpoint target. Opening is cheap and out-of-core: the
// file is mapped read-only where the platform allows (whole-file read
// fallback otherwise), sealed segment payloads are checksummed but not
// decoded (they fault in on first scan, visible in
// PoolStats.SegmentsLazy/SegmentsDecoded, and under Options.PoolBytes
// pressure are evicted back to the mapping), and the projections are
// not built until the first query or update needs the store's indexes —
// Open itself never pays the radix build. With
// Options.WALPath set, the log's surviving records are replayed through
// the ordinary delta path before the store is returned — crash recovery
// is exactly "load latest snapshot, re-apply the logged tail".
func OpenStore(path string, opts Options) (*Store, error) {
	s := newBareStore(opts)
	snap, blob, err := storage.OpenFileFS(s.fs, path, s.pool)
	if err != nil {
		return nil, err
	}
	s.blob = blob
	s.dict = snap.Dict
	s.table = snap.Triples
	s.schema = snap.Schema
	s.cat = snap.Catalog
	s.organized = snap.Organized
	s.literalsOrdered = snap.LiteralsOrdered
	s.snapshotPath = path
	if opts.WALPath != "" {
		s.attachWALLocked(opts.WALPath)
		if s.walErr != nil {
			s.stopProbeLocked()
			return nil, s.walErr
		}
	}
	return s, nil
}

// attachWALLocked opens (or creates) the log, replays its records
// through the ordinary update path, and starts recording. A log that
// cannot be opened latches the store read-only — writes without a
// durable record are rejected, not silently accepted — and the
// background probe keeps re-trying the attach.
func (s *Store) attachWALLocked(path string) {
	w, ops, err := storage.OpenWALFS(s.fs, path)
	if err != nil {
		s.walErr = fmt.Errorf("core: wal: %w", err)
		s.latchLocked(s.walErr)
		return
	}
	// s.wal is still nil during replay, so the replayed operations are
	// not re-appended to the log they came from.
	for _, op := range ops {
		if op.Del {
			s.deleteLocked(op.T)
		} else {
			s.addLocked(op.T)
		}
	}
	s.wal = w
}

// logLocked records one applied trickle operation. An operation the
// log cannot hold (the write path screens sizes up front, so this is a
// should-not-happen guard) latches walLost and read-only mode: the
// write is live in memory but has no durable copy until a snapshot
// checkpoint captures it.
func (s *Store) logLocked(del bool, t nt.Triple) {
	if s.wal == nil {
		return
	}
	if err := s.wal.Append(storage.Op{Del: del, T: t}); err != nil {
		if s.walLost == nil {
			s.walLost = fmt.Errorf("core: wal append: %w", err)
		}
		s.latchLocked(s.walLost)
	}
}

// syncWALLocked flushes the pending batch with the bounded immediate
// retry budget. Exhausting it latches the store read-only: the pending
// records stay buffered, recovery probes keep retrying them, and a
// successful sync un-latches.
func (s *Store) syncWALLocked() {
	if s.wal == nil {
		return
	}
	if err := storage.Retry(s.retryPolicy(), s.wal.Sync); err != nil {
		s.walErr = fmt.Errorf("core: wal sync: %w", err)
		s.latchLocked(s.walErr)
		return
	}
	s.walErr = nil
}

// checkpointLocked makes the current state durable: with a snapshot path
// attached it serializes a fresh snapshot under the store mutex, then
// RELEASES the mutex for the slow part — file write, fsync, atomic
// rename — so checkpoint I/O never stalls concurrent queries or trickle
// writes. The logged operations are folded into the snapshot, and
// replaying any tail that survives a badly timed crash is idempotent
// because the graph is a set. The WAL is truncated only if no records
// were appended while the mutex was released (appended records are not
// in the written snapshot; they stay logged and replay idempotently over
// it). With only a WAL attached it syncs the pending batch. A successful
// checkpoint clears a latched sync failure (the records the failed sync
// owed are in the snapshot now), so transient disk trouble never wedges
// the store permanently.
//
// Called with s.mu held; returns with s.mu held.
func (s *Store) checkpointLocked() error {
	if s.wal == nil && s.walErr != nil {
		// the WAL never attached; Close clears this to proceed without one
		return s.walErr
	}
	if s.snapshotPath == "" {
		if s.wal != nil {
			s.syncWALLocked()
			return s.walErr
		}
		return nil
	}
	// Serialize under mu: the byte slice is an immutable copy of this
	// instant's state, so the file write needs no lock at all.
	data, err := storage.Marshal(&storage.Snapshot{
		Organized:       s.organized,
		LiteralsOrdered: s.literalsOrdered,
		Dict:            s.dict,
		Triples:         s.table,
		Schema:          s.schema,
		Catalog:         s.cat,
	})
	if err != nil {
		return err
	}
	path := s.snapshotPath
	recs0 := -1
	if s.wal != nil {
		recs0 = s.wal.Records()
	}
	lost0 := s.walLost
	s.ckptSeq++
	seq := s.ckptSeq

	retry := s.retryPolicy()
	s.mu.Unlock()
	s.ckptMu.Lock()
	var werr error
	if s.ckptWritten < seq {
		werr = storage.Retry(retry, func() error {
			return storage.WriteFileBytesFS(s.fs, path, data)
		})
		if werr == nil {
			s.ckptWritten = seq
		}
	}
	// else: a later checkpoint already wrote a newer snapshot to this
	// path while we waited; ours is stale, and skipping it is success.
	s.ckptMu.Unlock()
	s.mu.Lock()

	if werr != nil {
		// Disk full (or worse) mid-checkpoint: the previous snapshot is
		// intact (the write is temp+rename atomic), the WAL still holds
		// its records, but durability maintenance has failed past the
		// retry budget — latch, and let recovery re-run the checkpoint.
		s.ckptPending = true
		s.latchLocked(fmt.Errorf("core: checkpoint: %w", werr))
		return werr
	}
	if s.wal != nil {
		if s.wal.Records() == recs0 {
			if err := storage.Retry(retry, s.wal.Truncate); err != nil {
				// A half-finished truncate leaves the log headerless;
				// Sync refuses until the Truncate retry completes, so
				// latch and let recovery finish the job.
				s.walErr = fmt.Errorf("core: wal truncate: %w", err)
				s.latchLocked(s.walErr)
				return s.walErr
			}
			s.walErr = nil
		} else {
			// Records landed after the snapshot was serialized: keep the
			// whole log (its pre-snapshot prefix replays as no-ops) and
			// make the new tail durable.
			s.syncWALLocked()
			if s.walErr != nil {
				return s.walErr
			}
		}
	}
	// The snapshot holds everything the log failed to before it was
	// serialized, un-logged records included; a loss latched during the
	// unlocked write is NOT covered and must stay latched.
	if s.walLost == lost0 {
		s.walLost = nil
	}
	s.ckptPending = false
	walOK := s.wal != nil && !s.wal.Dirty() || s.wal == nil && s.opts.WALPath == ""
	if s.ro && s.walErr == nil && s.walLost == nil && walOK {
		// a full checkpoint restored durability end to end
		s.unlatchLocked()
	}
	return nil
}

// Save checkpoints the store to path: pending writes are folded in, the
// whole state is written as an atomic snapshot, and the WAL (if any) is
// truncated. path becomes the target for future Organize/Compact
// checkpoints.
func (s *Store) Save(path string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.refreshLocked()
	s.snapshotPath = path
	return s.checkpointLocked()
}

// Close flushes and closes the WAL, stops the background recovery
// prober, and unmaps the snapshot an opened store was reading from.
// A store built in memory remains usable afterwards (just unlogged);
// an opened store must not be queried after Close — its sealed
// segments referenced the now-released mapping.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.walLost
	if err == nil {
		err = s.walErr
	}
	if err == nil && s.ro {
		err = s.roCause
	}
	if s.wal != nil {
		if e := s.wal.Close(); e != nil && err == nil {
			err = e
		}
		s.wal = nil
	}
	// the latched durability failures have been reported; the store
	// continues as a purely in-memory one
	s.walErr = nil
	s.walLost = nil
	s.ckptPending = false
	s.stopProbeLocked()
	s.unlatchLocked()
	if s.blob != nil {
		if e := s.blob.Close(); e != nil && err == nil {
			err = e
		}
		s.blob = nil
	}
	return err
}

// Dict exposes the dictionary (internally synchronized; shared with
// results).
func (s *Store) Dict() *dict.Dictionary { return s.dict }

// Pool exposes the simulated buffer pool for cold/hot control.
func (s *Store) Pool() *colstore.BufferPool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pool
}

// Schema returns the discovered schema (nil before Organize).
func (s *Store) Schema() *cs.Schema {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.schema
}

// Catalog returns the materialized catalog (nil before Organize). The
// catalog is copy-on-write: the returned value is a consistent snapshot.
func (s *Store) Catalog() *relational.Catalog {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cat
}

// Organized reports whether the store has a materialized schema —
// either from Organize or from an opened snapshot. Unlike Stats it does
// not refresh, so it is safe on the snapshot fast path before the
// deferred index build.
func (s *Store) Organized() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.organized
}

// Epoch returns the snapshot version: it advances whenever a refresh
// publishes new state (applied writes, Compact, Organize).
func (s *Store) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// NumTriples returns the store size including trickle inserts and
// pending deletions.
func (s *Store) NumTriples() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.applyPendingDeletesLocked()
	return s.table.Len()
}

// Add appends one triple (trickle load). Before Organize it is ordinary
// bulk data; after, it lands in the delta layer — assigned to an
// existing CS table when its subject's property set matches one, or to
// the irregular leftover store — and is answered exactly by the next
// query, whose refresh merges the pending write batch into the triple
// projections in one linear pass (no re-sort, no re-Organize). It
// returns ErrReadOnly while the store is latched after durability
// failures, and rejects (without applying) a triple whose lexical form
// cannot fit one WAL record — degrading the one write instead of the
// store.
func (s *Store) Add(t nt.Triple) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writableLocked(); err != nil {
		return err
	}
	if s.wal != nil {
		if err := s.wal.CanLog(storage.Op{T: t}); err != nil {
			return fmt.Errorf("core: add: %w", err)
		}
	}
	if s.addLocked(t) {
		s.logLocked(false, t)
	}
	return nil
}

// addLocked applies one insertion and reports whether it changed state
// (false for set-semantics no-ops) — the signal for WAL logging.
func (s *Store) addLocked(t nt.Triple) bool {
	nl := s.dict.NumLiterals()
	so := s.dict.Intern(t.S)
	po := s.dict.Intern(t.P)
	oo := s.dict.Intern(t.O)
	tr := triples.Triple{S: so, P: po, O: oo}
	if s.organized {
		if _, pending := s.delPending[tr]; pending {
			// re-adding a pending-deleted triple cancels the deletion
			delete(s.delPending, tr)
			s.touched[so] = struct{}{}
			return true
		}
		if s.presentLocked(tr) {
			return false // RDF graphs are sets; the live path enforces it
		}
		s.touched[so] = struct{}{}
		if s.dict.NumLiterals() != nl {
			s.literalsOrdered = false
		}
	} else if _, pending := s.delPending[tr]; pending {
		// pre-Organize delete-then-re-add: flush the committed deletions
		// now (removing the earlier copies of tr), then fall through to
		// append the fresh one — otherwise the batch delete applied later
		// would erase this add too
		s.applyPendingDeletesLocked()
	}
	s.table.Append(so, po, oo)
	if s.idx != nil {
		s.pendAdds[tr]++
	}
	return true
}

// Delete removes one triple. The deletion is queued and applied in a
// batch at the next refresh: the subject's sealed row (if any) is
// tombstoned and its surviving triples are re-routed through the delta
// layer. Deleting an absent triple is a no-op. Returns ErrReadOnly
// while the store is latched after durability failures.
func (s *Store) Delete(t nt.Triple) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writableLocked(); err != nil {
		return err
	}
	if s.wal != nil {
		if err := s.wal.CanLog(storage.Op{Del: true, T: t}); err != nil {
			return fmt.Errorf("core: delete: %w", err)
		}
	}
	if s.deleteLocked(t) {
		s.logLocked(true, t)
	}
	return nil
}

// deleteLocked queues one deletion and reports whether it changed state
// (false when the triple is absent) — the signal for WAL logging.
func (s *Store) deleteLocked(t nt.Triple) bool {
	so, ok := s.dict.Lookup(t.S)
	if !ok {
		return false
	}
	po, ok := s.dict.Lookup(t.P)
	if !ok {
		return false
	}
	oo, ok := s.dict.Lookup(t.O)
	if !ok {
		return false
	}
	tr := triples.Triple{S: so, P: po, O: oo}
	if _, pending := s.delPending[tr]; pending {
		return false // already queued: a repeat delete is a no-op
	}
	if s.organized {
		if !s.presentLocked(tr) {
			return false // absent: nothing to delete
		}
		s.delPending[tr] = struct{}{}
		s.touched[so] = struct{}{}
		return true
	}
	// Pre-Organize there is no current index to consult, so a delete of
	// an absent (but interned) triple still reports applied — and may be
	// WAL-logged; replaying it stays a no-op.
	s.delPending[tr] = struct{}{}
	return true
}

// presentLocked reports whether the triple is in the table once queued
// deletions are ignored (callers consult delPending themselves): pending
// adds first, then the index unless the triple was deleted since it was
// built. A snapshot-opened store defers the projection build to the
// first operation that needs it — that is what keeps Open at
// millisecond cost — so a missing index is built here on demand.
func (s *Store) presentLocked(tr triples.Triple) bool {
	if s.pendAdds[tr] > 0 {
		return true
	}
	if _, dead := s.pendDels[tr]; dead {
		return false
	}
	if s.idx == nil {
		s.syncIndexLocked()
	}
	return s.idx.Get(triples.SPO).Contains(tr)
}

// syncIndexLocked brings idx up to date with the table and reports
// whether it changed: a full build when there is no index yet, else one
// linear merge of the pending batch into fresh arrays (published
// snapshots keep the old ones).
func (s *Store) syncIndexLocked() bool {
	start := time.Now()
	switch {
	case s.idx == nil:
		s.idx = triples.BuildAll(s.table)
		s.idxStats.Builds++
	case len(s.pendAdds) > 0 || len(s.pendDels) > 0:
		adds := triples.NewTable(len(s.pendAdds))
		for tr, n := range s.pendAdds {
			for ; n > 0; n-- {
				adds.AppendTriple(tr)
			}
		}
		dels := make([]triples.Triple, 0, len(s.pendDels))
		for tr := range s.pendDels {
			dels = append(dels, tr)
		}
		s.idx = s.idx.Merge(adds, dels)
		s.idxStats.Merges++
		clear(s.pendAdds)
		clear(s.pendDels)
	default:
		return false
	}
	s.idxStats.Seconds += time.Since(start).Seconds()
	return true
}

// applyPendingDeletesLocked filters the queued deletions out of the base
// table in one pass. Returns the number of triples removed.
func (s *Store) applyPendingDeletesLocked() int {
	if len(s.delPending) == 0 {
		return 0
	}
	w, n := 0, s.table.Len()
	for i := 0; i < n; i++ {
		tr := s.table.At(i)
		if _, dead := s.delPending[tr]; dead {
			// every copy goes, including pending adds of tr
			delete(s.pendAdds, tr)
			if s.idx != nil {
				s.pendDels[tr] = struct{}{}
			}
			continue
		}
		s.table.S[w], s.table.P[w], s.table.O[w] = tr.S, tr.P, tr.O
		w++
	}
	removed := n - w
	s.table.S = s.table.S[:w]
	s.table.P = s.table.P[:w]
	s.table.O = s.table.O[:w]
	s.delPending = make(map[triples.Triple]struct{})
	return removed
}

// LoadNTriples bulk-loads N-Triples. When lenient, malformed lines are
// skipped and reported in the returned error slice.
func (s *Store) LoadNTriples(r io.Reader, lenient bool) (int, []error, error) {
	var rd *nt.Reader
	if lenient {
		rd = nt.NewLenientReader(r)
	} else {
		rd = nt.NewReader(r)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writableLocked(); err != nil {
		return 0, nil, err
	}
	n := 0
	for {
		t, err := rd.Read()
		if err == io.EOF {
			return n, rd.Errs(), nil
		}
		if err != nil {
			return n, rd.Errs(), err
		}
		s.addLocked(t)
		n++
	}
}

// LoadTurtle bulk-loads the Turtle subset.
func (s *Store) LoadTurtle(r io.Reader) (int, error) {
	ts, err := nt.ParseTurtle(r)
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writableLocked(); err != nil {
		return 0, err
	}
	for _, t := range ts {
		s.addLocked(t)
	}
	return len(ts), nil
}

// OrganizeReport summarizes what Organize did.
type OrganizeReport struct {
	Triples           int
	DuplicatesDropped int
	RawCSs            int
	CSs               int
	Tables            int
	LinkTables        int
	FKs               int
	Coverage          float64
	IrregularTriples  int
}

func (r OrganizeReport) String() string {
	return fmt.Sprintf("organized %d triples: %d raw CS -> %d tables (+%d link), %d FKs, coverage %.1f%%, %d irregular",
		r.Triples, r.RawCSs, r.Tables, r.LinkTables, r.FKs, 100*r.Coverage, r.IrregularTriples)
}

// Organize runs the self-organization pipeline: discover characteristic
// sets, cluster subjects (renumbering the whole OID space), materialize
// the relational catalog with zone maps, and rebuild the triple
// projections. It can be called again after live updates to fold the
// delta layer into a fresh clustering; because it renumbers the shared
// dictionary it waits for all in-flight queries to finish (close every
// Rows iterator first — calling Organize with a stream open on the same
// goroutine deadlocks).
func (s *Store) Organize() (OrganizeReport, error) {
	s.gate.Lock()
	defer s.gate.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	var rep OrganizeReport
	s.applyPendingDeletesLocked()
	// The table is rewritten below, so the index is built afresh after.
	s.idx = nil
	clear(s.pendAdds)
	clear(s.pendDels)
	if s.opts.Dedup {
		rep.DuplicatesDropped = s.table.Dedup()
	}
	rep.Triples = s.table.Len()

	s.schema = cs.Discover(s.table, s.dict, s.opts.CS)
	clOpts := s.opts.Cluster
	clOpts.SortKeys = s.workloadSortKeysLocked(clOpts.SortKeys)
	inf, err := cluster.Reorganize(s.table, s.dict, s.schema, clOpts)
	if err != nil {
		return rep, fmt.Errorf("core: organize: %w", err)
	}
	s.clusterIn = inf
	// The rebuilt segments live on the heap (the clustering just
	// rewrote them), so the fresh pool carries the byte budget but no
	// mapping releasers; the old blob stays open for the base table but
	// its resident pages are dropped below.
	s.pool = newPool(s.opts)
	s.cat = relational.BuildCatalog(s.table, s.dict, s.schema, inf, s.pool)
	s.syncIndexLocked()
	s.organized = true
	s.literalsOrdered = !s.opts.Cluster.KeepLiteralOrder
	s.touched = make(map[dict.OID]struct{})
	s.epoch++
	s.publishSnapshotLocked()
	if s.blob != nil {
		// nothing references the mapped encoded segments any more;
		// release their resident pages (they fault back if ever touched)
		s.blob.Drop()
	}

	rep.RawCSs = s.schema.RawCSCount
	rep.CSs = len(s.schema.CSs)
	st := s.cat.Stats()
	rep.Tables = st.Tables
	rep.LinkTables = st.LinkTables
	rep.FKs = len(s.schema.FKs)
	rep.Coverage = s.schema.Coverage
	rep.IrregularTriples = st.IrregularTriples
	// With persistence attached, an Organize is a checkpoint: the freshly
	// clustered state is snapshotted and the log truncated. The in-memory
	// reorganization above is complete either way; a checkpoint failure
	// only means durability lagged, and Save can retry it.
	if err := s.checkpointLocked(); err != nil {
		return rep, fmt.Errorf("core: organize checkpoint: %w", err)
	}
	return rep, nil
}

// CompactReport summarizes a Compact run.
type CompactReport struct {
	// Tables is the number of CS tables whose segments were rebuilt.
	Tables int
	// MergedRows is the number of delta rows merged into sealed
	// segments.
	MergedRows int
	// DroppedTombstones counts delete-bitmap entries folded into the new
	// segments.
	DroppedTombstones int
	// Epoch is the snapshot version after the compaction.
	Epoch uint64
}

func (r CompactReport) String() string {
	return fmt.Sprintf("compacted %d tables: %d delta rows merged, %d tombstones dropped (epoch %d)",
		r.Tables, r.MergedRows, r.DroppedTombstones, r.Epoch)
}

// Compact merges the delta layer into freshly sealed segments:
// tombstoned rows become permanent holes, delta rows are re-sealed
// behind their table's clustered region, and CS statistics are refreshed
// for the affected tables only — equivalent to, but much cheaper than, a
// full re-Organize (which it does not replace: only Organize re-clusters
// subject OIDs and restores sort-key pushdown). It is also triggered
// automatically when the delta grows past Options.CompactThreshold.
// Readers are unaffected: compaction happens on a catalog clone and
// in-flight snapshots keep scanning the old segments.
func (s *Store) Compact() (CompactReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.refreshLocked()
	st := s.compactLocked()
	if st.Tables > 0 {
		s.epoch++
		s.publishSnapshotLocked()
	}
	rep := CompactReport{
		Tables:            st.Tables,
		MergedRows:        st.MergedRows,
		DroppedTombstones: st.DroppedTombstones,
		Epoch:             s.epoch,
	}
	// Like Organize, an explicit Compact checkpoints when persistence is
	// attached (query-path auto-compaction does not — checkpoint I/O
	// never rides a read). The compaction itself is already published.
	if st.Tables > 0 {
		if err := s.checkpointLocked(); err != nil {
			return rep, fmt.Errorf("core: compact checkpoint: %w", err)
		}
	}
	return rep, nil
}

// compactLocked compacts on a catalog clone; the caller publishes.
func (s *Store) compactLocked() relational.CompactStats {
	if s.cat == nil || !s.cat.HasDeltas() {
		return relational.CompactStats{}
	}
	cat := s.cat.CloneForWrite()
	st := cat.Compact(s.pool)
	s.cat = cat
	return st
}

// workloadSortKeysLocked derives per-table sort keys from the observed
// workload: for each retained CS, the most-filtered predicate among its
// properties wins. Explicit user keys take precedence; tables without a
// workload signal fall back to AutoSortKey.
func (s *Store) workloadSortKeysLocked(explicit map[string]string) map[string]string {
	if len(s.workload) == 0 {
		return explicit
	}
	out := make(map[string]string, len(explicit))
	for k, v := range explicit {
		out[k] = v
	}
	for _, c := range s.schema.CSs {
		if !c.Retained {
			continue
		}
		if _, ok := out[c.Name]; ok {
			continue
		}
		best, bestN := "", 0
		for i := range c.Props {
			tm, ok := s.dict.Term(c.Props[i].Pred)
			if !ok {
				continue
			}
			if n := s.workload[tm.Value]; n > bestN {
				best, bestN = tm.Value, n
			}
		}
		if best != "" {
			out[c.Name] = best
		}
	}
	return out
}

// recordWorkloadLocked folds one parsed query into the workload stats.
func (s *Store) recordWorkloadLocked(q *sparql.Query) {
	for _, iri := range plan.WorkloadRangePreds(q) {
		s.workload[iri]++
	}
}

// publishSnapshotLocked builds and publishes the immutable epoch
// snapshot queries execute against.
func (s *Store) publishSnapshotLocked() {
	ctx := &exec.Ctx{
		Dict:        s.dict,
		Idx:         s.idx,
		Cat:         s.cat,
		Pool:        s.pool,
		Parallelism: s.opts.Parallelism,
	}
	ctx.TrackProjections(s.idx)
	if s.cat != nil {
		ctx.TrackProjections(s.cat.IrregularIdx)
	}
	s.snap = &snapshot{
		epoch:           s.epoch,
		dict:            s.dict,
		idx:             s.idx,
		schema:          s.schema,
		cat:             s.cat,
		organized:       s.organized,
		literalsOrdered: s.literalsOrdered,
		ctx:             ctx,
	}
}

// refreshLocked folds pending writes into a fresh snapshot: batch-apply
// deletions, merge the write batch into the projections, re-assign every
// touched subject through the delta layer, auto-compact past the
// threshold, and publish the next epoch.
func (s *Store) refreshLocked() {
	// Durability precedes visibility: the batch of trickle writes this
	// refresh folds in is fsynced before any query can observe it.
	// While latched read-only the refresh is skipped entirely — reads
	// keep serving the last published (fully durable) epoch, and the
	// in-memory writes that failed to sync stay invisible until a
	// recovery probe restores durability. The only in-refresh recovery
	// attempt is cheap (re-attach/truncate/sync, never checkpoint I/O)
	// and time-gated, so degraded queries never stall on a dead disk.
	if s.ro {
		if time.Now().Before(s.roNext) || !s.recoverLocked(false) {
			if s.snap == nil && (s.wal == nil || !s.wal.Dirty()) && s.walLost == nil {
				// nothing was ever published and nothing undurable is
				// in memory (writes while latched were rejected):
				// publish what the store holds so reads can serve
				s.epoch++
				s.publishSnapshotLocked()
			}
			return
		}
	}
	s.syncWALLocked()
	if s.ro {
		// the sync just latched: keep the previous epoch visible
		return
	}
	changed := false
	if s.applyPendingDeletesLocked() > 0 {
		changed = true
	}
	if s.syncIndexLocked() {
		changed = true
	}
	if s.organized && len(s.touched) > 0 {
		subs := make([]dict.OID, 0, len(s.touched))
		for o := range s.touched {
			subs = append(subs, o)
		}
		sort.Slice(subs, func(i, j int) bool { return subs[i] < subs[j] })
		cat := s.cat.CloneForWrite()
		cat.ReassignSubjects(subs, s.idx.Get(triples.SPO), s.schema)
		s.cat = cat
		s.touched = make(map[dict.OID]struct{})
		changed = true
		thr := s.opts.CompactThreshold
		if thr == 0 {
			thr = DefaultCompactThreshold
		}
		if thr > 0 && cat.DeltaRowCount()+cat.TombstoneCount() >= thr {
			// cat is this refresh's private clone (unpublished until
			// below), so compact it in place — no second deep copy
			cat.Compact(s.pool)
		}
	}
	if changed || s.snap == nil {
		s.epoch++
		s.publishSnapshotLocked()
	}
}

// planLocked refreshes, plans q against the current snapshot, and
// returns both. Callers execute against the snapshot without any lock.
func (s *Store) planLocked(q *sparql.Query, qopts QueryOptions, record bool) (*plan.Plan, *snapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if record {
		s.recordWorkloadLocked(q)
	}
	s.refreshLocked()
	if s.snap == nil {
		// Read-only latched before anything could be published (the
		// very first refresh hit the durability failure): there is no
		// durable epoch to serve, so the query reports the latch.
		return nil, nil, s.roErrLocked()
	}
	snap := s.snap
	p, err := plan.Build(q, snap.view(), plan.Options{
		Mode:       qopts.Mode,
		ZoneMaps:   qopts.ZoneMaps,
		ForceAlgo:  qopts.ForceAlgo,
		NoBloom:    qopts.NoBloom,
		ForceOrder: qopts.ForceOrder,
	})
	if err != nil {
		return nil, nil, err
	}
	return p, snap, nil
}

// BadQueryError marks a query the client got wrong — a parse failure or
// an unplannable shape — as opposed to a store-side failure (WAL sync
// loss). Protocol front ends map it to 400.
type BadQueryError struct{ Err error }

func (e *BadQueryError) Error() string { return e.Err.Error() }
func (e *BadQueryError) Unwrap() error { return e.Err }

// planSourceLocked is the cached planning path: refresh, then resolve
// (src, qopts) through the prepared-plan cache at the published epoch,
// parsing and building only on a miss. Parse and build failures come
// back wrapped in BadQueryError; WAL failures do not (they are the
// store's fault, not the query's).
func (s *Store) planSourceLocked(src string, qopts QueryOptions, record bool) (_ *plan.Plan, _ *snapshot, cached bool, _ error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.refreshLocked()
	if s.snap == nil {
		// see planLocked: latched before any epoch was published
		return nil, nil, false, s.roErrLocked()
	}
	snap := s.snap
	key := planCacheKey(src, qopts)
	if p, ok := s.plans.get(snap.epoch, key); ok {
		if record {
			s.recordWorkloadLocked(p.Query)
		}
		return p, snap, true, nil
	}
	q, err := sparql.Parse(src)
	if err != nil {
		return nil, nil, false, &BadQueryError{Err: err}
	}
	if record {
		s.recordWorkloadLocked(q)
	}
	p, err := plan.Build(q, snap.view(), plan.Options{
		Mode:       qopts.Mode,
		ZoneMaps:   qopts.ZoneMaps,
		ForceAlgo:  qopts.ForceAlgo,
		NoBloom:    qopts.NoBloom,
		ForceOrder: qopts.ForceOrder,
	})
	if err != nil {
		return nil, nil, false, &BadQueryError{Err: err}
	}
	s.plans.put(snap.epoch, key, p)
	return p, snap, false, nil
}

// PlanCacheStats reports the prepared-plan cache counters (zero values
// when the cache is disabled).
func (s *Store) PlanCacheStats() PlanCacheStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.plans.stats()
}

// IndexStats counts the maintenance of the store's triple projections:
// full builds (Organize, the first use after Open) and linear merges of
// a write batch (every refresh that folds in writes), with the time
// both took.
type IndexStats struct {
	Builds  uint64
	Merges  uint64
	Seconds float64
}

// IndexStats returns the index-maintenance counters. Like
// PlanCacheStats it never refreshes, so a metrics scrape does no
// writer's work.
func (s *Store) IndexStats() IndexStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.idxStats
}

// Query parses, plans and executes a SPARQL query against the current
// epoch snapshot. Concurrent Add/Delete/Compact calls do not affect a
// query once planned.
func (s *Store) Query(src string, qopts QueryOptions) (*exec.Result, error) {
	s.gate.RLock()
	defer s.gate.RUnlock()
	p, snap, cached, err := s.planSourceLocked(src, qopts, true)
	if err != nil {
		return nil, err
	}
	rec := newQueryRecord(src, p, cached)
	start := time.Now()
	res, err := p.Execute(queryCtx(snap, nil, qopts))
	rec.DurationNS = time.Since(start).Nanoseconds()
	if res != nil {
		rec.Rows = int64(len(res.Rows))
	}
	rec.Outcome = outcomeOf(err)
	s.qlog.record(rec)
	return res, err
}

// queryCtx forks the snapshot's shared Ctx for one query: its own
// cancellation signal (nil: uncancellable), failure slot, and memory
// budget. Every execution path forks — the failure slot is what lets a
// worker panic or budget overrun fail one query instead of the process.
func queryCtx(snap *snapshot, ctx context.Context, qopts QueryOptions) *exec.Ctx {
	ectx := snap.ctx.WithQueryContext(ctx)
	if qopts.MemLimit > 0 {
		ectx.Mem = exec.NewMemAccountant(qopts.MemLimit)
	}
	if ctx != nil {
		ectx.ReqID = RequestIDFrom(ctx)
	}
	return ectx
}

// QueryReference executes a query through the materializing reference
// path: the BGP tree is drained operator-at-a-time and topped with the
// PR-1 materializing head. It exists for differential testing — the
// streaming pipeline must stay row-identical to it.
func (s *Store) QueryReference(src string, qopts QueryOptions) (res *exec.Result, err error) {
	q, err := sparql.Parse(src)
	if err != nil {
		return nil, err
	}
	s.gate.RLock()
	defer s.gate.RUnlock()
	p, snap, err := s.planLocked(q, qopts, false)
	if err != nil {
		return nil, err
	}
	ectx := queryCtx(snap, nil, qopts)
	// The reference path materializes on the caller's goroutine, outside
	// the streaming iterator's recovery — catch panics here so a broken
	// operator fails the query, not the process.
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, exec.NewPanicError("reference evaluation", r)
		}
	}()
	rel := plan.Exec(p.Root, ectx)
	res, err = exec.Head(ectx, rel, q)
	if err == nil {
		if eerr := ectx.ExecErr(); eerr != nil {
			return nil, eerr
		}
	}
	return res, err
}

// Rows is a streaming query result: rows are produced by the vectorized
// pipeline as the consumer pulls, so LIMIT queries stop scanning early
// and large results never materialize. The iterator reads an immutable
// epoch snapshot: concurrent Add/Delete/Compact (and other queries) are
// safe while it is open and never affect its rows. Only Organize waits
// for open iterators — close (or drain) them before calling it.
type Rows struct {
	s    *Store
	it   *exec.RowIter
	done bool
	// rec is the query-log record prototype; Close fills the runtime
	// half (duration, rows, outcome) and records it.
	rec   QueryRecord
	start time.Time
	n     int64
}

// Vars lists the output column names.
func (r *Rows) Vars() []string { return r.it.Vars() }

// Next advances to the next row, closing the iterator at the end of the
// stream.
func (r *Rows) Next() bool {
	if r.done {
		return false
	}
	if r.it.Next() {
		r.n++
		return true
	}
	r.Close()
	return false
}

// Row returns the current row. The slice is reused by the next call to
// Next; copy values to retain them.
func (r *Rows) Row() []dict.Value { return r.it.Row() }

// Err reports why the stream ended early: the query context's error
// after a cancellation or timeout, or nil for plain exhaustion. Valid
// after Next returns false (and after Close).
func (r *Rows) Err() error { return r.it.Err() }

// Term resolves a result value back to its exact RDF term — IRI vs
// literal, datatype, language tag — via the OID it was decoded from.
// It reports false for computed values (arithmetic, aggregates), which
// carry no OID; serializers synthesize a typed literal from the value's
// kind instead.
func (r *Rows) Term(v dict.Value) (dict.Term, bool) {
	if v.OID == dict.Nil {
		return dict.Term{}, false
	}
	return r.it.Dict().Term(v.OID)
}

// Close stops the pipeline and releases the reader gate; idempotent.
func (r *Rows) Close() {
	if r.done {
		return
	}
	r.done = true
	r.it.Close()
	r.rec.DurationNS = time.Since(r.start).Nanoseconds()
	r.rec.Rows = r.n
	r.rec.Outcome = outcomeOf(r.it.Err())
	r.s.qlog.record(r.rec)
	r.s.gate.RUnlock()
}

// QueryStream parses, plans and starts a SPARQL query, returning a
// streaming row iterator over the current epoch snapshot instead of a
// materialized result.
func (s *Store) QueryStream(src string, qopts QueryOptions) (*Rows, error) {
	return s.QueryStreamCtx(context.Background(), src, qopts)
}

// QueryStreamCtx is QueryStream bound to a context: when ctx fires —
// per-query timeout, client disconnect — the pipeline's scans, joins
// and morsel workers stop at the next batch boundary, Next returns
// false, and Rows.Err reports the cause. Planning resolves through the
// prepared-plan cache; parse/plan failures are BadQueryError.
func (s *Store) QueryStreamCtx(ctx context.Context, src string, qopts QueryOptions) (*Rows, error) {
	s.gate.RLock()
	p, snap, cached, err := s.planSourceLocked(src, qopts, true)
	if err != nil {
		s.gate.RUnlock()
		return nil, err
	}
	it, err := p.Stream(queryCtx(snap, ctx, qopts))
	if err != nil {
		s.gate.RUnlock()
		return nil, err
	}
	return &Rows{s: s, it: it, rec: newQueryRecord(src, p, cached), start: time.Now()}, nil
}

// Explain returns the plan tree for a query without executing it.
func (s *Store) Explain(src string, qopts QueryOptions) (string, error) {
	q, err := sparql.Parse(src)
	if err != nil {
		return "", err
	}
	p, _, err := s.planLocked(q, qopts, false)
	if err != nil {
		return "", err
	}
	return p.Explain(), nil
}

// ExplainAnalyze executes the query to exhaustion with a per-operator
// stats tree attached and renders the plan with actual row counts,
// per-node time, and the worst est/act mis-estimation beside the
// estimates — the runtime truth the cost model is validated against.
// The execution is a real query: it goes through the plan cache, counts
// in the query log, and honors ctx cancellation and the memory budget.
func (s *Store) ExplainAnalyze(ctx context.Context, src string, qopts QueryOptions) (string, error) {
	s.gate.RLock()
	defer s.gate.RUnlock()
	p, snap, cached, err := s.planSourceLocked(src, qopts, true)
	if err != nil {
		return "", err
	}
	ectx := queryCtx(snap, ctx, qopts)
	stats := exec.NewQueryStats(p.NumStatNodes())
	ectx.Stats = stats
	rec := newQueryRecord(src, p, cached)
	start := time.Now()
	it, err := p.Stream(ectx)
	if err != nil {
		return "", err
	}
	var rows int64
	for it.Next() {
		rows++
	}
	dur := time.Since(start)
	rec.DurationNS = dur.Nanoseconds()
	rec.Rows = rows
	rec.Outcome = outcomeOf(it.Err())
	s.qlog.record(rec)
	if err := it.Err(); err != nil {
		return "", err
	}
	return p.ExplainAnalyze(stats, rows, dur), nil
}

// Uptime reports the time since the store was created or opened.
func (s *Store) Uptime() time.Duration { return time.Since(s.born) }

// SQLSchema renders the emergent relational schema as DDL — the SQL view
// of the regular part of the data.
func (s *Store) SQLSchema() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cat == nil {
		return "-- store not organized yet; call Organize()\n"
	}
	s.refreshLocked()
	return s.cat.DDL(s.dict)
}

// Stats summarizes the store.
type Stats struct {
	Triples   int
	Resources int
	Literals  int
	Organized bool
	Tables    int
	Irregular int
	Coverage  float64
	Pool      colstore.PoolStats
	// Epoch is the published snapshot version; DeltaRows and Tombstones
	// size the live-update delta layer awaiting Compact.
	Epoch      uint64
	DeltaRows  int
	Tombstones int
	// WALRecords counts operations in the attached write-ahead log since
	// the last checkpoint (0 when no WAL is attached).
	WALRecords int
}

// Stats returns store-level counters, folding pending writes in first.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.refreshLocked()
	st := Stats{
		Triples:   s.table.Len(),
		Resources: s.dict.NumResources(),
		Literals:  s.dict.NumLiterals(),
		Organized: s.organized,
		Pool:      s.pool.Stats(),
		Epoch:     s.epoch,
	}
	if s.wal != nil {
		st.WALRecords = s.wal.Records()
	}
	if s.cat != nil {
		cst := s.cat.Stats()
		st.Tables = cst.Tables
		st.Irregular = cst.IrregularTriples
		st.DeltaRows = cst.DeltaRows
		st.Tombstones = cst.Tombstones
	}
	if s.schema != nil {
		st.Coverage = s.schema.Coverage
	}
	return st
}
