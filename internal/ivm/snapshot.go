package ivm

import (
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"fivm/internal/data"
	"fivm/internal/viewtree"
)

// ViewSnapshot is one published epoch of a maintainer's state: an immutable,
// mutually consistent set of relation snapshots — the query result plus a
// named catalog of the materialized views (the result alone for result-only
// publishers, see Engine.SnapshotResult) — taken after some whole applied
// batch, never mid-batch. Snapshots are published with a single atomic
// pointer swap, so any number of reader goroutines can pin an epoch and read
// it lock-free while maintenance keeps streaming; see internal/serve for
// reader handles.
type ViewSnapshot[P any] struct {
	// Epoch counts published snapshots: 0 at enablement, +1 per applied
	// batch. Within one maintainer it is strictly monotonic.
	Epoch uint64
	// At is the publication wall time, the reference point of the
	// freshness-lag metric (time.Since(s.At) bounds a reader's staleness).
	At time.Time

	// views owns one reference to each relation snapshot it catalogs (one
	// Relation.Snapshot handle per entry; sealed entries carry none), and
	// result is one of them or a sealed snapshot.
	result *data.RelationSnapshot[P]
	views  map[string]*data.RelationSnapshot[P]
	byNode map[*viewtree.Node]*data.RelationSnapshot[P]
	names  []string

	// holders counts the writer-side owners keeping the epoch current: the
	// publisher until it publishes the next epoch, plus one per DB epoch
	// that carries it (HoldLatest). Writer-goroutine only in practice,
	// atomic for safety. seen records that a reader loaded the epoch (see
	// mark); the last holder of an epoch never seen releases its relation
	// snapshots, so their arena storage is recycled at the next publish
	// instead of waiting on the GC backstop.
	holders atomic.Int32
	seen    atomic.Bool
}

// Result returns the snapshot of the maintained query result.
func (s *ViewSnapshot[P]) Result() *data.RelationSnapshot[P] { return s.result }

// View returns the snapshot of the named materialized view, or nil. Names
// come from the maintainer's catalog (ViewNames).
func (s *ViewSnapshot[P]) View(name string) *data.RelationSnapshot[P] { return s.views[name] }

// Views returns the sorted catalog of view names in this snapshot.
func (s *ViewSnapshot[P]) Views() []string { return s.names }

// ViewOf returns the snapshot of a view-tree node's materialization, or nil.
// Only engine-published snapshots carry the node catalog; the factorized
// result representation enumerates through it.
func (s *ViewSnapshot[P]) ViewOf(n *viewtree.Node) *data.RelationSnapshot[P] { return s.byNode[n] }

// mark records that a reader obtained the epoch, which exempts it from
// release: its storage then returns to the arenas through the GC backstop
// once no reader holds it. The load-before-store keeps re-reads of a marked
// epoch from writing its cache line.
func (s *ViewSnapshot[P]) mark() *ViewSnapshot[P] {
	if !s.seen.Load() {
		s.seen.Store(true)
	}
	return s
}

// unhold drops one holder reference. The last one releases the epoch's
// relation snapshots unless a reader has seen it. Readers mark before they
// confirm the epoch is still current (publisher.load, db.DB.Epoch), and
// every holder drops its reference only after a newer epoch is installed,
// so with sequentially consistent atomics the last unhold either observes
// the mark or no reader can ever return the epoch.
func (s *ViewSnapshot[P]) unhold() {
	if s.holders.Add(-1) != 0 || s.seen.Load() {
		return
	}
	for _, r := range s.views {
		r.Release()
	}
}

// publishing is implemented by the maintainers a coordinator republishes
// (Engine and Parallel, the ones db.DB builds): it exposes the publisher
// that holds the maintainer's epochs.
type publishing[P any] interface {
	epochs() *publisher[P]
}

// HoldLatest returns m's latest published epoch with a holder reference
// taken on it, WITHOUT marking it seen: the caller is a coordinator that
// republishes the epoch (db.DB), not a reader, and hands it to readers only
// through a choke point that marks (db.DB.Epoch). The reference must be
// balanced with DropHold. m must be an Engine or a Parallel with publication
// enabled, and the call must come from its maintenance goroutine.
func HoldLatest[P any](m Maintainer[P]) *ViewSnapshot[P] {
	s := m.(publishing[P]).epochs().cur.Load()
	s.holders.Add(1)
	return s
}

// DropHold drops a reference taken by HoldLatest on s (a *ViewSnapshot[P]
// of any payload type; other values are ignored). Maintenance goroutine.
func DropHold(s any) {
	if h, ok := s.(interface{ unhold() }); ok {
		h.unhold()
	}
}

// publisher is the epoch machinery every maintainer embeds: an atomic
// pointer to the latest published snapshot. A nil pointer means publication
// is not enabled; the first Snapshot call on a maintainer enables it.
//
// The publication contract, shared by every maintainer:
//
//   - The first Snapshot call must not race ApplyDelta/ApplyDeltas: call it
//     once from the maintenance goroutine (typically right after Init) to
//     enable publication.
//   - Once enabled, the maintainer publishes a fresh epoch at the end of
//     every ApplyDelta/ApplyDeltas call, and Snapshot may be called from any
//     goroutine: it is a single atomic load.
//   - Maintainers that were never asked for a Snapshot pay nothing on the
//     maintenance path beyond one atomic load per applied batch.
//   - An epoch owns the Relation.Snapshot handles it took. The publisher
//     holds the current epoch and drops its hold when the next one is
//     installed; a coordinator republishing epochs (db.DB) adds holds of
//     its own (HoldLatest/DropHold). Snapshot marks every epoch it returns
//     as seen. When the last hold on an epoch no reader ever saw is
//     dropped, the epoch Releases its handles and their storage returns to
//     the relations' arenas at the next publish; a seen epoch is never
//     released and returns through the GC backstop (see data/snaparena.go)
//     once no reader holds it.
type publisher[P any] struct {
	cur atomic.Pointer[ViewSnapshot[P]]
	// names caches the sorted catalog across epochs (the catalog only
	// changes when views appear or a replan renames them); maintainers
	// whose catalog changed call invalidateNames, and a length mismatch
	// invalidates automatically.
	names []string
}

// enabled reports whether publication has been switched on.
func (p *publisher[P]) enabled() bool { return p.cur.Load() != nil }

// invalidateNames drops the cached catalog, forcing the next publish to
// rebuild it (engine replans rename views without changing their count).
func (p *publisher[P]) invalidateNames() { p.names = nil }

// publish installs the next epoch, holding it, drops the publisher's hold on
// the epoch it replaces, and returns the new one.
func (p *publisher[P]) publish(result *data.RelationSnapshot[P], views map[string]*data.RelationSnapshot[P], byNode map[*viewtree.Node]*data.RelationSnapshot[P]) *ViewSnapshot[P] {
	prev := p.cur.Load()
	var epoch uint64
	if prev != nil {
		epoch = prev.Epoch + 1
	}
	if len(p.names) != len(views) {
		names := make([]string, 0, len(views))
		for name := range views {
			names = append(names, name)
		}
		sort.Strings(names)
		p.names = names
	}
	s := &ViewSnapshot[P]{Epoch: epoch, At: time.Now(), result: result, views: views, byNode: byNode, names: p.names}
	s.holders.Store(1)
	p.cur.Store(s)
	if prev != nil {
		prev.unhold()
	}
	return s
}

func (e *Engine[P]) epochs() *publisher[P] { return &e.pub }

// epochs resolves to the inner engine's publisher for the sequential
// fallback, which delegates publication to it.
func (p *Parallel[P]) epochs() *publisher[P] {
	if p.Sharded() {
		return &p.pub
	}
	return p.shards[0].(publishing[P]).epochs()
}

// load returns the latest published epoch marked seen, or nil before
// publication is enabled. It marks, then re-loads and retries if a newer
// epoch was installed meanwhile: the writer retires an epoch only after
// installing its successor, so an epoch load returns was current after its
// mark landed, and the retiring writer's unhold observes the mark.
func (p *publisher[P]) load() *ViewSnapshot[P] {
	s := p.cur.Load()
	for s != nil {
		s.mark()
		next := p.cur.Load()
		if next == s {
			return s
		}
		s = next
	}
	return nil
}

// basesViews snapshots every stored base relation into a fresh catalog map
// with room for the result view.
func basesViews[P any](bases map[string]*data.Relation[P]) map[string]*data.RelationSnapshot[P] {
	views := make(map[string]*data.RelationSnapshot[P], len(bases)+1)
	for rel, b := range bases {
		views[rel] = b.Snapshot()
	}
	return views
}

// putResult adds the result snapshot to the catalog under the query's name,
// suffixing "#result" when a base relation already claims that name (a
// query may legally share its name with one of its relations).
func putResult[P any](views map[string]*data.RelationSnapshot[P], name string, res *data.RelationSnapshot[P]) {
	for {
		if _, taken := views[name]; !taken {
			views[name] = res
			return
		}
		name += "#result"
	}
}

// sealCache memoizes the sealed snapshot of a result relation that is
// replaced (never mutated) per recomputation, keyed by relation identity.
type sealCache[P any] struct {
	from *data.Relation[P]
	snap *data.RelationSnapshot[P]
}

func (c *sealCache[P]) of(r *data.Relation[P]) *data.RelationSnapshot[P] {
	if c.from != r {
		c.snap = r.Seal()
		c.from = r
	}
	return c.snap
}

// --- engine ------------------------------------------------------------------

// Snapshot returns the latest published consistent snapshot of the engine's
// materialized views, enabling publication on first use (see publisher for
// the concurrency contract).
func (e *Engine[P]) Snapshot() *ViewSnapshot[P] {
	if s := e.pub.load(); s != nil {
		return s
	}
	return e.publishSnapshot().mark()
}

// maybePublish publishes a fresh epoch if serving is enabled; maintainers
// call it exactly once at the end of every applied batch.
func (e *Engine[P]) maybePublish() {
	if e.pub.enabled() {
		e.publishSnapshot()
	}
}

// ResultPublisher is implemented by maintainers that can publish
// result-only epochs (Engine, and Parallel by delegation).
type ResultPublisher[P any] interface {
	SnapshotResult() *ViewSnapshot[P]
}

// SnapshotResult is Snapshot for consumers that read only the query result.
// Its first call — which, like Snapshot's, must come from the maintenance
// goroutine — enables publication in result-only mode: every epoch carries
// the root view alone, cataloged under the query's name, and the inner
// views are never snapshotted, so they pay no dirty tracking, payload
// privatization or arena copies. Once publication is enabled (in either
// mode) it returns the latest epoch, exactly like Snapshot.
func (e *Engine[P]) SnapshotResult() *ViewSnapshot[P] {
	if s := e.pub.load(); s != nil {
		return s
	}
	e.resultOnly = true
	return e.publishSnapshot().mark()
}

// publishSnapshot snapshots every materialized view (O(changed keys) per
// view via relation dirty tracking) — only the root in result-only mode —
// and swaps in the new epoch.
func (e *Engine[P]) publishSnapshot() *ViewSnapshot[P] {
	if e.resultOnly {
		// Resolve the root afresh: a replan may have replaced it.
		var result *data.RelationSnapshot[P]
		if ir := e.views[e.root]; ir != nil {
			result = ir.Snapshot()
		} else {
			result = data.NewRelation(e.ring, e.root.Keys).Seal()
		}
		return e.pub.publish(result, map[string]*data.RelationSnapshot[P]{e.q.Name: result}, nil)
	}
	views := make(map[string]*data.RelationSnapshot[P], len(e.views))
	byNode := make(map[*viewtree.Node]*data.RelationSnapshot[P], len(e.views))
	for node, ir := range e.views {
		s := ir.Snapshot()
		views[e.names[node]] = s
		byNode[node] = s
	}
	result := byNode[e.root]
	if result == nil {
		// Snapshot before Init (or of an engine whose root was never built):
		// an empty result, so readers see a well-formed epoch.
		result = data.NewRelation(e.ring, e.root.Keys).Seal()
	}
	return e.pub.publish(result, views, byNode)
}

// nameViews assigns every view-tree node its catalog name — Node.Name, made
// unique with a numeric suffix in the (not expected) event of a collision —
// and records the reverse map for ViewByName.
func (e *Engine[P]) nameViews() {
	e.names = make(map[*viewtree.Node]string)
	e.byName = make(map[string]*viewtree.Node)
	e.root.Walk(func(n *viewtree.Node) {
		name := n.Name()
		if _, taken := e.byName[name]; taken {
			base := name
			for i := 2; ; i++ {
				name = base + "#" + strconv.Itoa(i)
				if _, taken := e.byName[name]; !taken {
					break
				}
			}
		}
		e.names[n] = name
		e.byName[name] = n
	})
}

// ViewNames returns the catalog of view names the engine materializes, in
// sorted order. Every name resolves through ViewByName and appears in every
// full-catalog ViewSnapshot (not in result-only ones).
func (e *Engine[P]) ViewNames() []string {
	out := make([]string, 0, len(e.views))
	for node := range e.views {
		out = append(out, e.names[node])
	}
	sort.Strings(out)
	return out
}

// ViewByName returns the live materialized relation of the named view
// (Node.Name form, e.g. "V@C[A,B]" or a leaf's relation name), or nil if
// the name is unknown or the view is not materialized. Like Result and
// ViewOf, the returned relation is a live handle — use Snapshot().View(name)
// for a consistent, concurrency-safe read.
func (e *Engine[P]) ViewByName(name string) *data.Relation[P] {
	node, ok := e.byName[name]
	if !ok {
		return nil
	}
	return e.ViewOf(node)
}

// --- first-order -------------------------------------------------------------

// Snapshot returns the latest published snapshot: the maintained result
// under the query's name plus the stored base relations under theirs. See
// publisher for the concurrency contract.
func (m *FirstOrder[P]) Snapshot() *ViewSnapshot[P] {
	if s := m.pub.load(); s != nil {
		return s
	}
	return m.publishSnapshot().mark()
}

func (m *FirstOrder[P]) maybePublish() {
	if m.pub.enabled() {
		m.publishSnapshot()
	}
}

func (m *FirstOrder[P]) publishSnapshot() *ViewSnapshot[P] {
	views := basesViews(m.bases)
	var res *data.RelationSnapshot[P]
	if m.result != nil {
		res = m.result.Snapshot()
	} else {
		res = data.NewRelation(m.ring, m.root.Keys).Seal()
	}
	putResult(views, m.q.Name, res)
	return m.pub.publish(res, views, nil)
}

// --- recursive ---------------------------------------------------------------

// Snapshot returns the latest published snapshot: every view of the
// recursive hierarchy under its signature name, the root as the result. See
// publisher for the concurrency contract.
func (m *Recursive[P]) Snapshot() *ViewSnapshot[P] {
	if s := m.pub.load(); s != nil {
		return s
	}
	return m.publishSnapshot().mark()
}

func (m *Recursive[P]) maybePublish() {
	if m.pub.enabled() {
		m.publishSnapshot()
	}
}

func (m *Recursive[P]) publishSnapshot() *ViewSnapshot[P] {
	views := make(map[string]*data.RelationSnapshot[P], len(m.order))
	for _, v := range m.order {
		views[v.sig] = v.rel.Snapshot()
	}
	return m.pub.publish(views[m.root.sig], views, nil)
}

// --- re-evaluation -----------------------------------------------------------

// Snapshot returns the latest published snapshot. The result is recomputed
// wholesale per batch, so its snapshot is sealed from each fresh result
// relation; the stored bases snapshot incrementally. See publisher for the
// concurrency contract.
func (m *ReEval[P]) Snapshot() *ViewSnapshot[P] {
	if s := m.pub.load(); s != nil {
		return s
	}
	return m.publishSnapshot().mark()
}

func (m *ReEval[P]) maybePublish() {
	if m.pub.enabled() {
		m.publishSnapshot()
	}
}

func (m *ReEval[P]) publishSnapshot() *ViewSnapshot[P] {
	views := basesViews(m.bases)
	var res *data.RelationSnapshot[P]
	if m.result != nil {
		// The result relation is replaced (never mutated) per batch, so the
		// snapshot can share its entries; sealCache memoizes per pointer.
		res = m.seal.of(m.result)
	} else {
		res = data.NewRelation(m.ring, m.root.Keys).Seal()
	}
	putResult(views, m.q.Name, res)
	return m.pub.publish(res, views, nil)
}

// Snapshot returns the latest published snapshot; like ReEval, the result is
// sealed per recomputation. See publisher for the concurrency contract.
func (m *NaiveReEval[P]) Snapshot() *ViewSnapshot[P] {
	if s := m.pub.load(); s != nil {
		return s
	}
	return m.publishSnapshot().mark()
}

func (m *NaiveReEval[P]) maybePublish() {
	if m.pub.enabled() {
		m.publishSnapshot()
	}
}

func (m *NaiveReEval[P]) publishSnapshot() *ViewSnapshot[P] {
	views := basesViews(m.bases)
	var res *data.RelationSnapshot[P]
	if m.result != nil {
		res = m.seal.of(m.result)
	} else {
		res = data.NewRelation(m.ring, m.q.Free).Seal()
	}
	putResult(views, m.q.Name, res)
	return m.pub.publish(res, views, nil)
}

// --- scalar multi-aggregate maintainers --------------------------------------

// aggName names the i-th scalar aggregate view in multi-aggregate catalogs.
func aggName(i int) string { return "agg" + strconv.Itoa(i) }

// Snapshot returns the latest published snapshot: one view per scalar
// aggregate ("agg0", "agg1", ...) plus the shared bases, with the count
// aggregate as the result. See publisher for the concurrency contract.
func (m *MultiFirstOrder) Snapshot() *ViewSnapshot[float64] {
	if s := m.pub.load(); s != nil {
		return s
	}
	return m.publishSnapshot().mark()
}

func (m *MultiFirstOrder) maybePublish() {
	if m.pub.enabled() {
		m.publishSnapshot()
	}
}

func (m *MultiFirstOrder) publishSnapshot() *ViewSnapshot[float64] {
	views := make(map[string]*data.RelationSnapshot[float64], len(m.results)+len(m.bases))
	for rel, b := range m.bases {
		views[rel] = b.Snapshot()
	}
	for i, r := range m.results {
		views[aggName(i)] = r.Snapshot()
	}
	res := views[aggName(0)]
	if res == nil {
		res = m.Result().Seal()
	}
	return m.pub.publish(res, views, nil)
}

// Snapshot returns the latest published snapshot: one view per scalar
// aggregate hierarchy root. See publisher for the concurrency contract.
func (m *MultiRecursive) Snapshot() *ViewSnapshot[float64] {
	if s := m.pub.load(); s != nil {
		return s
	}
	return m.publishSnapshot().mark()
}

func (m *MultiRecursive) maybePublish() {
	if m.pub.enabled() {
		m.publishSnapshot()
	}
}

func (m *MultiRecursive) publishSnapshot() *ViewSnapshot[float64] {
	views := make(map[string]*data.RelationSnapshot[float64], len(m.instances))
	for i, inst := range m.instances {
		views[aggName(i)] = inst.root.rel.Snapshot()
	}
	return m.pub.publish(views[aggName(0)], views, nil)
}

// --- parallel ----------------------------------------------------------------

// Snapshot returns the latest published snapshot. A sharded maintainer
// reduces the shard results key-wise after each batch and seals the reduced
// relation — shard-local views are per-shard state and are not cataloged;
// the sequential fallback delegates to its inner maintainer. See publisher
// for the concurrency contract.
func (p *Parallel[P]) Snapshot() *ViewSnapshot[P] {
	if !p.Sharded() {
		return p.shards[0].Snapshot()
	}
	if s := p.pub.load(); s != nil {
		return s
	}
	return p.publishSnapshot().mark()
}

// SnapshotResult enables result-only publication (see
// Engine.SnapshotResult). The sharded maintainer publishes only the reduced
// result anyway; the sequential fallback routes the choice to its inner
// maintainer.
func (p *Parallel[P]) SnapshotResult() *ViewSnapshot[P] {
	if p.Sharded() {
		return p.Snapshot()
	}
	if rp, ok := p.shards[0].(ResultPublisher[P]); ok {
		return rp.SnapshotResult()
	}
	return p.shards[0].Snapshot()
}

func (p *Parallel[P]) maybePublish() {
	if p.pub.enabled() {
		p.publishSnapshot()
	}
}

func (p *Parallel[P]) publishSnapshot() *ViewSnapshot[P] {
	// Reduce straight into a sealed snapshot: one radix sort over the
	// gathered shard entries instead of a merge through a fresh hash
	// relation (payloads are copied, so the live shard results stay free to
	// mutate in later batches).
	p.reduceParts = p.reduceParts[:0]
	for _, m := range p.shards {
		p.reduceParts = append(p.reduceParts, m.Result())
	}
	res := data.ReduceSealed(p.ring, p.reduceParts[0].Schema(), p.reduceParts)
	views := map[string]*data.RelationSnapshot[P]{p.q.Name: res}
	return p.pub.publish(res, views, nil)
}
