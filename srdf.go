// Package srdf is a self-organizing RDF store: a Go reproduction of
// "Self-organizing Structured RDF in MonetDB" (Pham & Boncz, ICDE 2013).
//
// The store ingests RDF triples without requiring a schema, then
// discovers one: characteristic sets (property combinations that co-occur
// on subjects) are detected, generalized, typed, linked with foreign
// keys, and materialized as relational tables over columnar storage. The
// physical triple store is reorganized so that subjects of one table
// occupy a contiguous, value-sub-ordered OID range, and SPARQL star
// patterns are evaluated by the RDFscan/RDFjoin operators with zero
// self-joins, pruned by zone maps. Irregular triples that fit no table
// remain in a classic triple store and stay fully queryable.
//
// Quickstart:
//
//	store := srdf.New(srdf.Defaults())
//	store.MustLoadTurtle(data)
//	report, _ := store.Organize()
//	fmt.Println(report)            // discovered schema summary
//	fmt.Println(store.SQLSchema()) // the emergent DDL
//	res, _ := store.Query(`SELECT ?a ?n WHERE { ... }`)
//	fmt.Println(res)
package srdf

import (
	"context"
	"io"
	"strings"
	"time"

	"srdf/internal/colstore"
	"srdf/internal/core"
	"srdf/internal/cs"
	"srdf/internal/dict"
	"srdf/internal/exec"
	"srdf/internal/nt"
	"srdf/internal/plan"
)

// Mode selects the query-plan family.
type Mode = plan.Mode

// Plan families (the paper's Table I configurations).
const (
	// Default evaluates star patterns with per-property index scans and
	// self-joins over the ordered triple projections.
	Default = plan.ModeDefault
	// RDFScan evaluates star patterns with the RDFscan/RDFjoin
	// operators over the emergent tables.
	RDFScan = plan.ModeRDFScan
)

// Options configures a Store. The zero value is not useful; start from
// Defaults.
type Options struct {
	// MinSupport is the minimum subject count (plus incoming-link tally)
	// for a characteristic set to become a table.
	MinSupport int
	// MinPropFrac is the minority fraction under which a property is
	// dropped from a merged CS instead of becoming a nullable column.
	MinPropFrac float64
	// TypeSplit enables per-object-type CS variants.
	TypeSplit bool
	// SortKeys maps emergent table names to predicate IRIs used for
	// subject sub-ordering (empty: automatic date/int selection).
	SortKeys map[string]string
	// PoolPages caps the simulated buffer pool (<=0: unlimited).
	PoolPages int
	// PoolBytes caps the real memory decoded sealed segments may
	// occupy (<=0: unlimited). When an opened store's scans decode past
	// the budget, the least-recently-used unpinned segments are evicted
	// back to their on-disk encoded form (the mmap'd snapshot) and
	// fault in again on the next touch — so a store much larger than
	// memory stays queryable with bounded RSS. Watch
	// PoolStats.Evictions and PoolStats.ResidentBytes.
	PoolBytes int64
	// Parallelism sets the morsel-driven worker count for RDFscan
	// table scans and for partial aggregation in the query head; <=1
	// runs sequentially. Scans merge in morsel order and are
	// row-identical to sequential execution. Aggregate workers' partial
	// states merge deterministically with group output in global
	// first-appearance order; COUNT, MIN, MAX, integer sums and AVG
	// over integers are exactly identical to sequential execution,
	// while SUM/AVG over floats re-associate the addition across
	// partials and can differ from the sequential fold in the last few
	// bits.
	Parallelism int
	// CompactThreshold is the delta-layer size (delta rows plus
	// tombstones) past which the store automatically compacts deltas
	// into freshly sealed segments; 0 uses the built-in default,
	// negative disables auto-compaction (Compact can still be called
	// explicitly).
	CompactThreshold int
	// WALPath attaches a write-ahead log. Every trickle Add/Delete is
	// recorded in lexical term form and fsynced at batch boundaries
	// (before a refresh publishes the writes to queries, at checkpoints,
	// and on Close), so the post-Organize delta layer survives crashes:
	// recovery is Open (load the latest snapshot) + automatic replay of
	// the log's surviving records through the ordinary delta path.
	// Explicit Organize, Compact and Save checkpoint — they write a
	// fresh snapshot (when a snapshot path is attached via Open or Save)
	// and truncate the log. Bulk loads are not logged; checkpoint them
	// with Save.
	WALPath string
}

// Defaults returns the standard configuration.
func Defaults() Options {
	return Options{
		MinSupport:  3,
		MinPropFrac: 0.05,
		TypeSplit:   true,
	}
}

// QueryOptions selects the plan family and zone-map usage per query.
type QueryOptions struct {
	Mode     Mode
	ZoneMaps bool
	// ForceAlgo pins the physical join algorithm ("hash", "merge",
	// "rdfjoin") wherever the optimizer could have applied it; joins the
	// pinned algorithm cannot serve keep the cost-based choice. Meant
	// for testing and plan comparison.
	ForceAlgo string
	// NoBloom disables runtime bloom filters on hash-join probe sides.
	NoBloom bool
	// ForceOrder fixes the left-deep star join order by subject
	// variable name (without the leading '?').
	ForceOrder []string
	// MemLimit bounds the bytes the query's materializing operators may
	// retain; 0 is unlimited. An exceeded budget fails the one query
	// with ErrMemBudget without affecting concurrent queries.
	MemLimit int64
}

func (o QueryOptions) core() core.QueryOptions {
	return core.QueryOptions{
		Mode:       o.Mode,
		ZoneMaps:   o.ZoneMaps,
		ForceAlgo:  o.ForceAlgo,
		NoBloom:    o.NoBloom,
		ForceOrder: o.ForceOrder,
		MemLimit:   o.MemLimit,
	}
}

// ErrMemBudget marks a query that exceeded its MemLimit.
var ErrMemBudget = exec.ErrMemBudget

// Store is a self-organizing RDF store. Create with New.
type Store struct {
	inner *core.Store
}

// New creates an empty store.
func New(o Options) *Store {
	return &Store{inner: core.NewStore(coreOptions(o))}
}

// Open loads a snapshot written by Save (or `srdf build`) and returns a
// ready store: schema, catalog and delta layer exactly as checkpointed,
// with no re-parse and no re-Organize. Opening is cheap — sealed column
// segments are checksummed but stay in their compressed on-disk form
// until a scan first touches them (watch PoolStats.SegmentsDecoded), so
// a large store opens in milliseconds and cold queries fault in only the
// columns they read. With Options.WALPath set, the log's surviving
// records are replayed into the delta layer before Open returns, and the
// path becomes the target of future checkpoints.
func Open(path string, o Options) (*Store, error) {
	inner, err := core.OpenStore(path, coreOptions(o))
	if err != nil {
		return nil, err
	}
	return &Store{inner: inner}, nil
}

func coreOptions(o Options) core.Options {
	copts := core.DefaultOptions()
	if o.MinSupport > 0 {
		copts.CS.MinSupport = o.MinSupport
	}
	if o.MinPropFrac > 0 {
		copts.CS.MinPropFrac = o.MinPropFrac
	}
	copts.CS.TypeSplit = o.TypeSplit
	copts.Cluster.SortKeys = o.SortKeys
	copts.PoolPages = o.PoolPages
	copts.PoolBytes = o.PoolBytes
	copts.Parallelism = o.Parallelism
	copts.CompactThreshold = o.CompactThreshold
	copts.WALPath = o.WALPath
	return copts
}

// Save checkpoints the whole store to path as a versioned, checksummed
// binary snapshot: dictionary, base triples, discovered schema, sealed
// compressed segments, tombstones, delta rows and the irregular residue.
// The write is atomic (temp file + rename), pending writes are folded in
// first, and an attached WAL is truncated — its records are now in the
// snapshot. path becomes the target for future Organize/Compact
// checkpoints.
func (s *Store) Save(path string) error { return s.inner.Save(path) }

// Close flushes and detaches the write-ahead log, if one is attached.
// The store remains usable in memory afterwards, but trickle writes are
// no longer logged.
func (s *Store) Close() error { return s.inner.Close() }

// Report summarizes an Organize run.
type Report = core.OrganizeReport

// Result is a decoded query result; Vars are the output columns and each
// row holds typed values (use Value.Lexical for display).
type Result = exec.Result

// Value is a typed query-result cell.
type Value = dict.Value

// Triple is one RDF statement for trickle insertion.
type Triple = nt.Triple

// Term constructors for building triples programmatically.
var (
	IRI       = dict.IRI
	Blank     = dict.Blank
	StringLit = dict.StringLit
	TypedLit  = dict.TypedLit
	IntLit    = dict.IntLit
	FloatLit  = dict.FloatLit
	DateLit   = dict.DateLit
	LangLit   = dict.LangLit
)

// LoadNTriples bulk-loads N-Triples from r. With lenient set, malformed
// lines are skipped and returned as errors rather than aborting.
func (s *Store) LoadNTriples(r io.Reader, lenient bool) (int, []error, error) {
	return s.inner.LoadNTriples(r, lenient)
}

// LoadTurtle loads the supported Turtle subset from r.
func (s *Store) LoadTurtle(r io.Reader) (int, error) {
	return s.inner.LoadTurtle(r)
}

// MustLoadTurtle loads Turtle source text, panicking on parse errors.
// Intended for examples and tests.
func (s *Store) MustLoadTurtle(src string) int {
	n, err := s.inner.LoadTurtle(strings.NewReader(src))
	if err != nil {
		panic(err)
	}
	return n
}

// Add trickle-inserts one triple. After Organize the triple lands in the
// mutable delta layer: its subject is matched against the existing
// characteristic sets and either gets a delta row behind one table's
// sealed segments or spills to the irregular leftover store — exactly
// queryable by the next query either way. That query's refresh merges
// the pending writes into the triple projections in one linear pass (no
// re-sort), so making a write visible costs time linear in the store
// size. The live path treats the graph as a set: adding an
// already-present triple is a no-op. While the store is latched
// read-only after durability failures (see Health) the write is
// rejected with an error wrapping ErrReadOnly.
func (s *Store) Add(t Triple) error { return s.inner.Add(t) }

// Delete removes one triple. After Organize the subject's sealed row is
// tombstoned and its surviving values are re-routed through the delta
// layer at the next query; deleting an absent triple is a no-op. While
// the store is latched read-only the delete is rejected with an error
// wrapping ErrReadOnly.
func (s *Store) Delete(t Triple) error { return s.inner.Delete(t) }

// ErrReadOnly matches (via errors.Is) the error writes receive while
// the store is degraded to read-only after durability failures.
var ErrReadOnly = core.ErrReadOnly

// Health is a point-in-time view of the store's durability state.
type Health = core.Health

// Health reports whether the store is serving normally or has latched
// read-only after WAL/checkpoint failures: the latched error, the
// number of failed recovery probes, and the countdown to the next one.
// Reads keep serving the last published epoch either way; a background
// probe un-latches the store when the disk recovers.
func (s *Store) Health() Health { return s.inner.Health() }

// Organize discovers the schema, clusters subjects, and materializes the
// relational catalog. Call it after bulk loading, and occasionally after
// heavy update traffic to re-cluster from scratch; day-to-day deltas are
// folded in incrementally by queries and Compact instead. Organize
// renumbers the dictionary, so it waits for open Rows iterators — close
// them first (same-goroutine calls with an open stream deadlock).
func (s *Store) Organize() (Report, error) { return s.inner.Organize() }

// CompactReport summarizes a Compact run.
type CompactReport = core.CompactReport

// Compact merges the delta layer (delta rows, tombstones) into freshly
// sealed compressed segments and refreshes the affected tables' CS
// statistics — the incremental, much cheaper alternative to a full
// re-Organize. It also runs automatically once the delta outgrows
// Options.CompactThreshold. Concurrent readers are unaffected: they
// keep their snapshot until their next query.
func (s *Store) Compact() (CompactReport, error) { return s.inner.Compact() }

// Query runs a SPARQL SELECT query with the default configuration
// (RDFscan plans with zone maps — the paper's fastest).
func (s *Store) Query(q string) (*Result, error) {
	return s.inner.Query(q, core.QueryOptions{Mode: RDFScan, ZoneMaps: true})
}

// QueryWith runs a SPARQL SELECT query under an explicit configuration.
func (s *Store) QueryWith(q string, o QueryOptions) (*Result, error) {
	return s.inner.Query(q, o.core())
}

// Rows is a streaming query result; see QueryStream.
type Rows = core.Rows

// QueryStream runs a SPARQL SELECT query with the default configuration
// and returns a streaming row iterator: rows are produced batch by batch
// as the consumer pulls them, LIMIT stops the underlying scans early,
// and large results never materialize. Every query shape streams —
// GROUP BY/aggregates fold into per-group states, DISTINCT keeps only a
// key set, and ORDER BY + LIMIT k holds at most k rows of sort state —
// so there is no materializing fallback. The iterator reads an immutable
// epoch snapshot: Add, Delete, Compact and other queries may run
// concurrently while it is open and never affect its rows. Only
// Organize blocks until every open iterator is closed (exhaustion
// closes automatically).
func (s *Store) QueryStream(q string) (*Rows, error) {
	return s.inner.QueryStream(q, core.QueryOptions{Mode: RDFScan, ZoneMaps: true})
}

// QueryStreamWith is QueryStream under an explicit configuration.
func (s *Store) QueryStreamWith(q string, o QueryOptions) (*Rows, error) {
	return s.inner.QueryStream(q, o.core())
}

// QueryStreamCtx is QueryStream bound to a context: when ctx is
// cancelled or its deadline passes, the pipeline's scans, joins and
// morsel workers stop at the next batch boundary, Next returns false,
// and Rows.Err reports the cause. Malformed or unplannable queries come
// back as *core.BadQueryError.
func (s *Store) QueryStreamCtx(ctx context.Context, q string, o QueryOptions) (*Rows, error) {
	return s.inner.QueryStreamCtx(ctx, q, o.core())
}

// PlanCacheStats exposes the prepared-plan cache counters: plans are
// cached per (query text, options) at the current snapshot epoch, and
// any published change — trickle refresh, Organize, Compact — advances
// the epoch and drops the cache.
type PlanCacheStats = core.PlanCacheStats

// PlanCacheStats returns the prepared-plan cache counters.
func (s *Store) PlanCacheStats() PlanCacheStats { return s.inner.PlanCacheStats() }

// IndexStats counts the maintenance of the triple projections: full
// builds (Organize, the first use after Open), linear merges of write
// batches, and the seconds both took.
type IndexStats = core.IndexStats

// IndexStats returns the index-maintenance counters without folding in
// pending writes, so reading them never does a writer's work.
func (s *Store) IndexStats() IndexStats { return s.inner.IndexStats() }

// Explain returns the plan tree that QueryWith would execute.
func (s *Store) Explain(q string, o QueryOptions) (string, error) {
	return s.inner.Explain(q, o.core())
}

// ExplainAnalyze executes q and returns the plan tree annotated with
// the actual row counts and per-operator times of that execution
// (act_rows beside est_rows), plus a top-line summary of the worst
// estimation error. The query runs to completion under ctx — EXPLAIN
// ANALYZE costs what the query costs.
func (s *Store) ExplainAnalyze(ctx context.Context, q string, o QueryOptions) (string, error) {
	return s.inner.ExplainAnalyze(ctx, q, o.core())
}

// QueryRecord is one completed query in the structured query log.
type QueryRecord = core.QueryRecord

// WorkloadProfile aggregates the query log into per-predicate touch
// counts and per-column filter counts — the sensor a self-organization
// policy would read.
type WorkloadProfile = core.WorkloadProfile

// QueryLog returns the most recent completed queries, newest first.
func (s *Store) QueryLog() []QueryRecord { return s.inner.QueryLog() }

// WorkloadProfile returns the cumulative workload aggregation of the
// query log.
func (s *Store) WorkloadProfile() WorkloadProfile { return s.inner.WorkloadProfile() }

// QueryLogCounts returns the cumulative (queries, result rows) totals
// the query log has recorded, for metrics exposition.
func (s *Store) QueryLogCounts() (queries, rows uint64) { return s.inner.QueryLogCounts() }

// Epoch returns the published snapshot epoch; it advances on every
// visible change (trickle refresh, Organize, Compact).
func (s *Store) Epoch() uint64 { return s.inner.Epoch() }

// Uptime reports the time since the store was created or opened.
func (s *Store) Uptime() time.Duration { return s.inner.Uptime() }

// Organized reports whether the store has a materialized schema, from
// Organize or from an opened snapshot.
func (s *Store) Organized() bool { return s.inner.Organized() }

// SQLSchema renders the emergent relational schema as SQL DDL.
func (s *Store) SQLSchema() string { return s.inner.SQLSchema() }

// SchemaSummary renders a reduced schema: only tables matching the
// keywords (any, case-insensitive) or at/above minSupport, expanded over
// foreign-key reachability — the paper's session-time schema
// summarization.
func (s *Store) SchemaSummary(keywords []string, minSupport int) string {
	sc := s.inner.Schema()
	if sc == nil {
		return "-- store not organized yet\n"
	}
	sum := sc.Summarize(cs.SummaryOptions{Keywords: keywords, MinSupport: minSupport, FollowFKs: true})
	var b strings.Builder
	for _, c := range sum.CSs {
		b.WriteString("TABLE " + c.Name)
		cols := make([]string, 0, len(c.Props))
		for i := range c.Props {
			cols = append(cols, c.Props[i].Name)
		}
		b.WriteString(" (" + strings.Join(cols, ", ") + ")\n")
	}
	for _, fk := range sum.FKs {
		b.WriteString("  FK " + sum.NameOf(fk.From) + "." + fk.Name + " -> " + sum.NameOf(fk.To) + "\n")
	}
	return b.String()
}

// Stats returns store-level counters.
type Stats = core.Stats

// Stats returns store-level counters.
func (s *Store) Stats() Stats { return s.inner.Stats() }

// NumTriples returns the number of stored triples.
func (s *Store) NumTriples() int { return s.inner.NumTriples() }

// PoolStats exposes the buffer pool counters: the simulated page side
// (hits, misses, simulated I/O time) and the real memory-manager side
// (decode faults, evictions, resident decoded bytes against the
// Options.PoolBytes budget).
type PoolStats = colstore.PoolStats

// PoolStats returns the buffer pool counters.
func (s *Store) PoolStats() PoolStats { return s.inner.Pool().Stats() }

// ResetCold flushes the buffer pool, as if the server had restarted —
// the "Cold" condition of the paper's Table I. Both the simulated page
// table and the real decoded segments of an opened store are dropped;
// the latter fault back in from the snapshot on the next scan.
func (s *Store) ResetCold() { s.inner.Pool().ResetCold() }

// ResetPoolStats zeroes the pool counters without evicting pages.
func (s *Store) ResetPoolStats() { s.inner.Pool().ResetStats() }

// Internal returns the underlying engine for benchmark harnesses and
// advanced use; the core API may change between versions.
func (s *Store) Internal() *core.Store { return s.inner }

// NewFromCore wraps an already-constructed core store in the public
// facade — for module-internal harnesses that need core-only options
// (fault-injected filesystems, probe intervals). The core API may
// change between versions.
func NewFromCore(inner *core.Store) *Store { return &Store{inner: inner} }
