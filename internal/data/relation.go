package data

import (
	"fmt"
	"strings"

	"fivm/internal/ring"
)

// Entry is one key-payload pair of a relation. Relations store entries by
// pointer, so a payload update in place does not reallocate or re-hash; the
// unexported key field caches the encoded tuple key for index maintenance
// and deletion without re-encoding, and hash caches the key's table hash so
// growth and index bucket membership never touch the key bytes again.
type Entry[P any] struct {
	key     string
	hash    uint64
	Tuple   Tuple
	Payload P
	// gen guards snapshot sharing of mutable payload storage: when it is
	// older than the relation's publish generation, the storage is shared
	// with a published snapshot and must be privatized before the next
	// in-place mutation (see Relation.ensureOwned). Zero on relations that
	// were never snapshotted.
	gen uint64
}

// Key returns the entry's encoded tuple key.
func (e *Entry[P]) Key() string { return e.key }

// Relation is a finite-support function from tuples over a schema to
// payloads in a ring D: the paper's relations R : Dom(S) -> D. Keys with
// payload 0 are not stored, so Len is the paper's |R|.
//
// Entries live in an open-addressing, group-probed hash table (see swiss.go)
// specialized for the pointer-entry layout: slots hold entry pointers only,
// keys and hashes are cached inside the entries.
//
// Mutating and probing methods share a per-relation scratch buffer for key
// encoding, so steady-state Get/Merge/Set do zero key allocations; as a
// consequence a Relation must not be accessed concurrently, even for reads
// through keyBuf-using methods (pure entry iteration — Iterate,
// IterateEntries, MergeAll's source side — does not touch the scratch and
// may be shared read-only across goroutines).
//
// Payloads are owned: a stored payload is the ring's CopyInto copy of the
// merged value, and later merges accumulate into it in place (AddInto,
// MulAddInto), so steady-state payload accumulation does zero allocations
// for rings with reusable payload storage. Payloads read out of a relation
// are snapshots only until its next update (see ring.Ring).
//
// For concurrent readers, Snapshot publishes an immutable RelationSnapshot
// of the current contents at O(changed-since-last-snapshot) cost; sealed
// snapshot entries are never mutated in place, so pinned snapshots stay
// valid while the live relation keeps changing.
type Relation[P any] struct {
	schema  Schema
	ring    ring.Ring[P]
	entries entryTable[P]
	keyBuf  []byte
	// keyHash is the hash of the key most recently encoded into keyBuf (or
	// looked up by string); insertEntry stores it into the fresh entry, so a
	// probe-then-insert pair hashes the key exactly once.
	keyHash uint64
	// recycle marks delta-scratch relations whose entries Clear moves onto
	// the freelist for reuse; see RecycleCleared.
	recycle bool
	// shareProjected lets projected merges store prefix subslices of the
	// source tuple instead of fresh copies; see ShareProjectedTuples.
	shareProjected bool
	free           []*Entry[P]
	// stats, when non-nil, receives every insert/delete transition; see
	// CollectStats.
	stats *RelStats
	// snap, when non-nil, tracks the keys dirtied since the last published
	// snapshot; see Snapshot.
	snap *snapState[P]
}

// NewRelation creates an empty relation over the given ring and schema.
func NewRelation[P any](r ring.Ring[P], schema Schema) *Relation[P] {
	return &Relation[P]{schema: schema, ring: r}
}

// Schema returns the relation's schema.
func (r *Relation[P]) Schema() Schema { return r.schema }

// Ring returns the relation's payload ring.
func (r *Relation[P]) Ring() ring.Ring[P] { return r.ring }

// Len returns the number of keys with non-zero payloads.
func (r *Relation[P]) Len() int { return r.entries.len() }

// Reserve grows the entry table to hold at least n entries without
// rehashing, a capacity hint for bulk loads and delta materialization.
func (r *Relation[P]) Reserve(n int) {
	r.entries.reserve(n)
}

// Clear removes every entry, retaining the table's capacity for reuse in
// steady-state delta scratch relations (and, after RecycleCleared, the
// entry structs and their payload storage too).
func (r *Relation[P]) Clear() {
	if r.recycle && r.snap == nil {
		// Recycling is disabled once the relation publishes snapshots:
		// pinned snapshots may still reference the cleared entries and
		// their payload storage. (Recycling scratch relations are never
		// snapshotted, so this guard changes nothing in practice.)
		r.entries.all(func(e *Entry[P]) bool {
			e.Tuple = nil // tuples may be retained by consumers; never reused
			r.free = append(r.free, e)
			return true
		})
	}
	if r.stats != nil {
		r.stats.Live -= r.entries.len()
	}
	if r.snap != nil {
		// Wholesale invalidation: the next publish rebuilds from scratch.
		r.snap.fullDirty = true
		r.snap.dirtyKeys = r.snap.dirtyKeys[:0]
	}
	r.entries.clear()
}

// ShareProjectedTuples lets MergeProjected and MergeMulProjected store, for
// prefix projections, a subslice of the source tuple instead of a fresh
// copy. Callers must guarantee every projected source tuple's backing array
// is immutable for the relation's lifetime (true for delta-relation tuples,
// false for arena-backed scratch tuples).
func (r *Relation[P]) ShareProjectedTuples() { r.shareProjected = true }

// projApply materializes the projection of t for storage, honoring the
// tuple-sharing mode.
func (r *Relation[P]) projApply(proj Projector, t Tuple) Tuple {
	if r.shareProjected {
		return proj.SharedApply(t)
	}
	return proj.Apply(t)
}

// CollectStats attaches a statistics collector: from now on every insert
// transition (key appearing with non-zero payload) and delete transition
// (payload cancelling to zero) is reported to rs, keeping its cardinality
// exact and its per-column sketches current. Existing contents are not
// re-counted — seed rs first (ObserveRelation) when attaching to a populated
// relation. The overhead is one nil check on unhooked relations and one
// counter-plus-sketch update per transition otherwise. Pass nil to detach.
func (r *Relation[P]) CollectStats(rs *RelStats) {
	r.stats = rs
	if rs != nil {
		rs.exact = true
	}
}

// noteInsert and noteDelete report presence transitions to the attached
// statistics collector, if any.
func (r *Relation[P]) noteInsert(t Tuple) {
	if r.stats != nil {
		r.stats.ObserveInsert(t)
	}
}

func (r *Relation[P]) noteDelete() {
	if r.stats != nil {
		r.stats.ObserveDelete()
	}
}

// RecycleCleared makes Clear feed removed entries into a freelist that
// fresh stores pop from, reusing the Entry struct and its payload storage.
// Safe only for relations whose consumers never hold an *Entry, or a
// payload with reusable storage read from one, across a Clear — the
// delta-propagation scratch relations qualify: views copy what they keep.
// Stored tuples are never reused.
func (r *Relation[P]) RecycleCleared() { r.recycle = true }

// removeEntry deletes an entry and reports the transition to the
// statistics collector and the snapshot dirty list.
func (r *Relation[P]) removeEntry(e *Entry[P]) {
	r.entries.del(e)
	r.noteDelete()
	r.markEntry(e)
}

// insertEntry stores a fresh entry under key (which must be absent and must
// be the key whose hash a lookup just left in keyHash), reusing a recycled
// entry when available. The caller must set Payload (recycled entries hold
// stale payloads whose storage CopyInto/MulInto may reuse).
func (r *Relation[P]) insertEntry(key string, t Tuple) *Entry[P] {
	var e *Entry[P]
	if n := len(r.free); n > 0 {
		e = r.free[n-1]
		r.free = r.free[:n-1]
		e.key = key
		e.Tuple = t
	} else {
		e = &Entry[P]{key: key, Tuple: t}
	}
	e.hash = r.keyHash
	r.entries.insert(e)
	r.noteInsert(t)
	r.markInserted(e)
	return e
}

// adopt inserts an externally built entry whose key, hash, and payload are
// already set (relation clones and negations).
func (r *Relation[P]) adopt(e *Entry[P]) {
	r.entries.insert(e)
}

// lookup returns the entry stored under tuple t, encoding the key into the
// relation's scratch buffer and leaving its hash in keyHash (no allocation).
func (r *Relation[P]) lookup(t Tuple) *Entry[P] {
	r.keyBuf = t.AppendKey(r.keyBuf[:0])
	r.keyHash = hashBytes(r.keyBuf)
	return r.entries.getBytes(r.keyHash, r.keyBuf)
}

// lookupScratch probes for the key currently encoded in the scratch buffer,
// leaving its hash in keyHash.
func (r *Relation[P]) lookupScratch() *Entry[P] {
	r.keyHash = hashBytes(r.keyBuf)
	return r.entries.getBytes(r.keyHash, r.keyBuf)
}

// lookupString probes for an interned key string, leaving its hash in
// keyHash.
func (r *Relation[P]) lookupString(key string) *Entry[P] {
	r.keyHash = hashString(key)
	return r.entries.getString(r.keyHash, key)
}

// Get returns the payload of tuple t and whether it is non-zero.
func (r *Relation[P]) Get(t Tuple) (P, bool) {
	if e := r.lookup(t); e != nil {
		return e.Payload, true
	}
	var zero P
	return zero, false
}

// GetProjected returns the payload stored under the projection of t by
// proj (which must target r's schema), without materializing the projected
// tuple or its key.
func (r *Relation[P]) GetProjected(proj Projector, t Tuple) (P, bool) {
	r.keyBuf = proj.AppendKey(r.keyBuf[:0], t)
	if e := r.lookupScratch(); e != nil {
		return e.Payload, true
	}
	var zero P
	return zero, false
}

// LookupProjected returns the entry stored under the projection of t by
// proj, or nil. Hot paths use it to reach payloads without copying them;
// the entry is owned by the relation and must not be mutated.
func (r *Relation[P]) LookupProjected(proj Projector, t Tuple) *Entry[P] {
	r.keyBuf = proj.AppendKey(r.keyBuf[:0], t)
	return r.lookupScratch()
}

// Contains reports whether tuple t has a non-zero payload.
func (r *Relation[P]) Contains(t Tuple) bool { return r.lookup(t) != nil }

// Set assigns payload p to tuple t, deleting the key if p is zero.
func (r *Relation[P]) Set(t Tuple, p P) {
	e := r.lookup(t)
	if r.ring.IsZero(p) {
		if e != nil {
			r.removeEntry(e)
		}
		return
	}
	if e == nil {
		e = r.insertEntry(string(r.keyBuf), t) // lookup left t's encoding in the scratch buffer
	} else if s := r.snap; s != nil && e.gen != s.gen {
		// Storage shared with a snapshot: copy into fresh storage (no point
		// privatizing the old payload just to discard it).
		var fresh P
		e.Payload = fresh
		r.markEntry(e)
	}
	r.ring.CopyInto(&e.Payload, p) // reuse the owned payload's storage
}

// addEntry accumulates p into a stored entry in place, removing the entry if
// its payload cancels to zero; it reports whether the entry survives.
func (r *Relation[P]) addEntry(e *Entry[P], p P) bool {
	r.touchEntry(e)
	r.ring.AddInto(&e.Payload, p)
	return r.keepNonZero(e)
}

// addEntryRef is addEntry for a heap-resident source payload (another
// entry's stored payload, an owned accumulator field), read through its
// pointer so wide payloads are never copied at the interface boundary.
func (r *Relation[P]) addEntryRef(e *Entry[P], p *P) bool {
	r.touchEntry(e)
	r.ring.AddIntoRef(&e.Payload, p)
	return r.keepNonZero(e)
}

// mulAddEntry accumulates the product (*a)*(*b) into a stored entry in
// place, removing the entry if its payload cancels to zero.
func (r *Relation[P]) mulAddEntry(e *Entry[P], a, b *P) {
	r.touchEntry(e)
	r.ring.MulAddInto(&e.Payload, a, b)
	r.keepNonZero(e)
}

// keepNonZero removes e if its payload is zero and reports whether it stays.
func (r *Relation[P]) keepNonZero(e *Entry[P]) bool {
	if r.ring.IsZeroRef(&e.Payload) {
		r.removeEntry(e)
		return false
	}
	return true
}

// insertProduct stores (*a)*(*b) under a fresh key, computed directly into
// the (possibly recycled) entry's storage, and drops the entry again if the
// product is zero.
func (r *Relation[P]) insertProduct(key string, t Tuple, a, b *P) {
	e := r.insertEntry(key, t)
	r.ring.MulInto(&e.Payload, a, b)
	if r.ring.IsZeroRef(&e.Payload) {
		r.dropFresh(e)
	}
}

// mergeEntry adds p to the payload of tuple t and reports the affected entry
// together with its presence transition (existed before, exists after), so
// index maintenance can react to appearance and disappearance.
func (r *Relation[P]) mergeEntry(t Tuple, p P) (en *Entry[P], existed, exists bool) {
	if e := r.lookup(t); e != nil {
		return e, true, r.addEntry(e, p)
	}
	if r.ring.IsZero(p) {
		return nil, false, false
	}
	e := r.insertEntry(string(r.keyBuf), t) // lookup left t's encoding in the scratch buffer
	r.ring.CopyInto(&e.Payload, p)
	return e, false, true
}

// Merge adds p to the payload of tuple t (the pointwise union operator ⊎
// applied to a single key), deleting the key if the sum vanishes. It returns
// the new payload.
func (r *Relation[P]) Merge(t Tuple, p P) P {
	en, _, exists := r.mergeEntry(t, p)
	if exists {
		return en.Payload
	}
	var zero P
	if en != nil {
		return zero // cancelled to zero
	}
	return p // zero merge into absent key
}

// MergeProjected merges payload p under the projection of t by proj (which
// must target r's schema). The projected tuple is materialized only when a
// new entry is inserted, so steady-state projected merges do zero
// allocations.
func (r *Relation[P]) MergeProjected(proj Projector, t Tuple, p P) {
	r.keyBuf = proj.AppendKey(r.keyBuf[:0], t)
	if e := r.lookupScratch(); e != nil {
		r.addEntry(e, p)
	} else if !r.ring.IsZero(p) {
		e := r.insertEntry(string(r.keyBuf), r.projApply(proj, t))
		r.ring.CopyInto(&e.Payload, p)
	}
}

// MergeMul merges the product (*a)*(*b) under tuple t, computed directly
// into the stored payload (zero allocations for existing keys of rings with
// reusable payload storage). The operands are only read.
func (r *Relation[P]) MergeMul(t Tuple, a, b *P) {
	if e := r.lookup(t); e != nil {
		r.mulAddEntry(e, a, b)
	} else {
		r.insertProduct(string(r.keyBuf), t, a, b) // lookup left t's encoding in the scratch buffer
	}
}

// dropFresh removes an entry that was just inserted but whose payload
// turned out zero, returning it to the freelist when recycling.
func (r *Relation[P]) dropFresh(e *Entry[P]) {
	r.removeEntry(e)
	if r.recycle {
		e.Tuple = nil
		r.free = append(r.free, e)
	}
}

// MergeMulProjected merges the product (*a)*(*b) under the projection of t
// by proj: out[π(t)] += a*b, the innermost operation of delta propagation.
// The product lands directly in the stored payload, so merges onto existing
// keys of rings with reusable payload storage do zero allocations. The
// operands are only read.
func (r *Relation[P]) MergeMulProjected(proj Projector, t Tuple, a, b *P) {
	r.keyBuf = proj.AppendKey(r.keyBuf[:0], t)
	if e := r.lookupScratch(); e != nil {
		r.mulAddEntry(e, a, b)
	} else {
		r.insertProduct(string(r.keyBuf), r.projApply(proj, t), a, b)
	}
}

// MergeProjectedKey is MergeProjected for a caller-encoded key: key must be
// the encoding of proj applied to t (as produced by proj.AppendKey). The
// fused delta-application path encodes every output key once for sorting and
// reuses it here, skipping the re-encode MergeProjected would do. The key
// bytes are copied on insert, never retained. p must point at heap-resident
// storage (the fuser's owned accumulator qualifies) and is only read.
func (r *Relation[P]) MergeProjectedKey(key []byte, proj Projector, t Tuple, p *P) {
	r.keyHash = hashBytes(key)
	if e := r.entries.getBytes(r.keyHash, key); e != nil {
		r.addEntryRef(e, p)
	} else if !r.ring.IsZeroRef(p) {
		e := r.insertEntry(string(key), r.projApply(proj, t))
		r.ring.CopyIntoRef(&e.Payload, p)
	}
}

// MergeKey is Merge for a pre-encoded key.
func (r *Relation[P]) MergeKey(key string, t Tuple, p P) {
	if e := r.lookupString(key); e != nil {
		r.addEntry(e, p)
	} else if !r.ring.IsZero(p) {
		r.ring.CopyInto(&r.insertEntry(key, t).Payload, p)
	}
}

// MergeAll merges every entry of o into r: r := r ⊎ o. The relations must
// share a schema (same variables in the same order). Source payloads are
// entry-resident, so they are merged through pointers without copying.
func (r *Relation[P]) MergeAll(o *Relation[P]) {
	o.entries.all(func(e *Entry[P]) bool {
		if en := r.lookupString(e.key); en != nil {
			r.addEntryRef(en, &e.Payload)
		} else if !r.ring.IsZeroRef(&e.Payload) {
			r.ring.CopyIntoRef(&r.insertEntry(e.key, e.Tuple).Payload, &e.Payload)
		}
		return true
	})
}

// Iterate calls f for each entry until f returns false. Iteration order is
// unspecified.
func (r *Relation[P]) Iterate(f func(t Tuple, p P) bool) {
	r.entries.all(func(e *Entry[P]) bool {
		return f(e.Tuple, e.Payload)
	})
}

// IterateEntries calls f for each stored entry until f returns false. The
// entries are owned by the relation and must not be mutated.
func (r *Relation[P]) IterateEntries(f func(e *Entry[P]) bool) {
	r.entries.all(f)
}

// Entries returns copies of the entries in unspecified order.
func (r *Relation[P]) Entries() []Entry[P] {
	out := make([]Entry[P], 0, r.entries.len())
	r.entries.all(func(e *Entry[P]) bool {
		out = append(out, *e)
		return true
	})
	return out
}

// SortedEntries returns the entries ordered by encoded key, for
// deterministic output in tests and tools.
func (r *Relation[P]) SortedEntries() []Entry[P] {
	out := make([]Entry[P], 0, r.entries.len())
	r.entries.all(func(e *Entry[P]) bool {
		out = append(out, *e)
		return true
	})
	radixSortEntries(out)
	return out
}

// Clone returns a copy sharing tuples but no entry or table structure.
// Payloads are CopyInto copies, so later merges into either relation never
// bleed into the other.
func (r *Relation[P]) Clone() *Relation[P] {
	out := &Relation[P]{schema: r.schema, ring: r.ring}
	out.entries.reserve(r.entries.len())
	r.entries.all(func(e *Entry[P]) bool {
		c := &Entry[P]{key: e.key, hash: e.hash, Tuple: e.Tuple}
		r.ring.CopyIntoRef(&c.Payload, &e.Payload)
		out.adopt(c)
		return true
	})
	return out
}

// Negate returns a relation mapping every key of r to the additive inverse
// of its payload. A deletion of the tuples of r is expressed as merging
// r.Negate().
func (r *Relation[P]) Negate() *Relation[P] {
	out := &Relation[P]{schema: r.schema, ring: r.ring}
	out.entries.reserve(r.entries.len())
	r.entries.all(func(e *Entry[P]) bool {
		out.adopt(&Entry[P]{key: e.key, hash: e.hash, Tuple: e.Tuple, Payload: r.ring.Neg(e.Payload)})
		return true
	})
	return out
}

// Equal reports whether two relations have the same schema variables and
// identical key support, comparing payloads with eq.
func (r *Relation[P]) Equal(o *Relation[P], eq func(a, b P) bool) bool {
	if !r.schema.SameSet(o.schema) || r.entries.len() != o.entries.len() {
		return false
	}
	proj := MustProjector(o.schema, r.schema)
	var buf []byte
	equal := true
	o.entries.all(func(e *Entry[P]) bool {
		buf = proj.AppendKey(buf[:0], e.Tuple)
		p := r.entries.getBytes(hashBytes(buf), buf)
		if p == nil || !eq(p.Payload, e.Payload) {
			equal = false
			return false
		}
		return true
	})
	return equal
}

// String renders the relation's sorted contents for debugging.
func (r *Relation[P]) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v{", r.schema)
	for i, e := range r.SortedEntries() {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%v->%v", e.Tuple, e.Payload)
	}
	b.WriteString("}")
	return b.String()
}

// FromEntries builds a relation from tuple/payload pairs, merging duplicate
// keys.
func FromEntries[P any](r ring.Ring[P], schema Schema, entries ...Entry[P]) *Relation[P] {
	rel := NewRelation(r, schema)
	for _, e := range entries {
		rel.Merge(e.Tuple, e.Payload)
	}
	return rel
}

// Singleton builds a relation holding one tuple with the given payload.
func Singleton[P any](r ring.Ring[P], schema Schema, t Tuple, p P) *Relation[P] {
	rel := NewRelation(r, schema)
	rel.Set(t, p)
	return rel
}
