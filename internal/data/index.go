package data

import "fmt"

// Index is a secondary hash index over a relation: it maps the encoded
// projection of each key onto an index schema to the set of entries sharing
// that projection. Buckets hold the relation's entry pointers directly, so a
// probe yields tuples and payloads without a second lookup in the primary
// table. Delta propagation probes sibling views through indexes to
// enumerate join partners without scanning.
//
// The bucket directory is the same group-probed table as the primary
// storage (see swiss.go), with one directory node per distinct projected
// key whose payload is the bucket set; buckets themselves are hybrid
// slice/table EntrySets (see entryset.go).
type Index[P any] struct {
	on     Schema
	proj   Projector
	dir    entryTable[*EntrySet[P]]
	keyBuf []byte
}

// NewIndex creates an empty index over the given relation schema, keyed by
// the on-variables.
func NewIndex[P any](relSchema, on Schema) *Index[P] {
	return &Index[P]{
		on:   on,
		proj: MustProjector(relSchema, on),
	}
}

// On returns the index key schema.
func (ix *Index[P]) On() Schema { return ix.on }

// Add records that entry e is present in the relation.
func (ix *Index[P]) Add(e *Entry[P]) {
	ix.keyBuf = ix.proj.AppendKey(ix.keyBuf[:0], e.Tuple)
	h := hashBytes(ix.keyBuf)
	node := ix.dir.getBytes(h, ix.keyBuf)
	if node == nil {
		node = &Entry[*EntrySet[P]]{key: string(ix.keyBuf), hash: h, Payload: &EntrySet[P]{}}
		ix.dir.insert(node)
	}
	node.Payload.add(e)
}

// Remove records that entry e is gone from the relation.
func (ix *Index[P]) Remove(e *Entry[P]) {
	ix.keyBuf = ix.proj.AppendKey(ix.keyBuf[:0], e.Tuple)
	node := ix.dir.getBytes(hashBytes(ix.keyBuf), ix.keyBuf)
	if node == nil {
		return
	}
	node.Payload.remove(e)
	if node.Payload.Len() == 0 {
		ix.dir.del(node)
	}
}

// Probe returns the bucket of entries whose projection matches the encoded
// key; a miss returns nil, which iterates and counts as an empty set. The
// bucket is owned by the index and must not be modified.
func (ix *Index[P]) Probe(key string) *EntrySet[P] {
	if node := ix.dir.getString(hashString(key), key); node != nil {
		return node.Payload
	}
	return nil
}

// ProbeBytes is Probe for a key encoded in a caller-owned scratch buffer;
// the lookup does not allocate.
func (ix *Index[P]) ProbeBytes(key []byte) *EntrySet[P] {
	if node := ix.dir.getBytes(hashBytes(key), key); node != nil {
		return node.Payload
	}
	return nil
}

// Len returns the number of distinct index keys.
func (ix *Index[P]) Len() int { return ix.dir.len() }

// IndexedRelation wraps a Relation with incrementally maintained secondary
// indexes. Mutations must go through MergeIndexed (or Rebuild after bulk
// loads) so the indexes stay consistent.
type IndexedRelation[P any] struct {
	*Relation[P]
	indexes map[string]*Index[P]
}

// NewIndexedRelation wraps an empty relation.
func NewIndexedRelation[P any](rel *Relation[P]) *IndexedRelation[P] {
	return &IndexedRelation[P]{Relation: rel, indexes: make(map[string]*Index[P])}
}

// EnsureIndex returns the index on the given variables, creating and
// populating it from the current contents if needed.
func (ir *IndexedRelation[P]) EnsureIndex(on Schema) *Index[P] {
	name := on.String()
	if ix, ok := ir.indexes[name]; ok {
		return ix
	}
	ix := NewIndex[P](ir.Schema(), on)
	ir.entries.all(func(e *Entry[P]) bool {
		ix.Add(e)
		return true
	})
	ir.indexes[name] = ix
	return ix
}

// Lookup returns the index on the given variables, or nil if absent.
func (ir *IndexedRelation[P]) Lookup(on Schema) *Index[P] {
	return ir.indexes[on.String()]
}

// MergeIndexed merges payload p under tuple t and keeps all indexes
// consistent with key appearance and disappearance.
func (ir *IndexedRelation[P]) MergeIndexed(t Tuple, p P) {
	en, existed, exists := ir.mergeEntry(t, p)
	switch {
	case !existed && exists:
		for _, ix := range ir.indexes {
			ix.Add(en)
		}
	case existed && !exists:
		for _, ix := range ir.indexes {
			ix.Remove(en)
		}
	}
}

// mergeIndexedRef is MergeIndexed for a heap-resident source payload (another
// entry's stored payload): the source is read through its pointer, so wide
// payloads are never copied at the interface boundary.
func (ir *IndexedRelation[P]) mergeIndexedRef(t Tuple, p *P) {
	if en := ir.lookup(t); en != nil {
		ir.addIndexedRef(en, p)
	} else if !ir.ring.IsZeroRef(p) {
		ir.insertIndexedRef(string(ir.keyBuf), t, p) // lookup left t's encoding in the scratch buffer
	}
}

// mergeProjectedIndexed is mergeIndexedRef for a projected tuple,
// materializing the projection only on insert.
func (ir *IndexedRelation[P]) mergeProjectedIndexed(proj Projector, t Tuple, p *P) {
	ir.keyBuf = proj.AppendKey(ir.keyBuf[:0], t)
	if en := ir.lookupScratch(); en != nil {
		ir.addIndexedRef(en, p)
	} else if !ir.ring.IsZeroRef(p) {
		ir.insertIndexedRef(string(ir.keyBuf), proj.Apply(t), p)
	}
}

// addIndexedRef accumulates *p into a stored entry, unindexing the entry if
// its payload cancels to zero.
func (ir *IndexedRelation[P]) addIndexedRef(en *Entry[P], p *P) {
	if !ir.addEntryRef(en, p) {
		for _, ix := range ir.indexes {
			ix.Remove(en)
		}
	}
}

// insertIndexedRef stores a copy of the non-zero *p under a fresh key and
// indexes the new entry.
func (ir *IndexedRelation[P]) insertIndexedRef(key string, t Tuple, p *P) {
	en := ir.insertEntry(key, t)
	ir.ring.CopyIntoRef(&en.Payload, p)
	for _, ix := range ir.indexes {
		ix.Add(en)
	}
}

// MergeAllIndexed merges every entry of o, maintaining indexes. Source
// payloads are entry-resident, so they are merged through pointers without
// copying.
func (ir *IndexedRelation[P]) MergeAllIndexed(o *Relation[P]) {
	if !ir.Schema().Equal(o.Schema()) && !ir.Schema().SameSet(o.Schema()) {
		panic(fmt.Sprintf("data: merge of incompatible schemas %v and %v", ir.Schema(), o.Schema()))
	}
	if ir.Schema().Equal(o.Schema()) {
		o.entries.all(func(e *Entry[P]) bool {
			ir.mergeIndexedRef(e.Tuple, &e.Payload)
			return true
		})
		return
	}
	proj := MustProjector(o.Schema(), ir.Schema())
	o.entries.all(func(e *Entry[P]) bool {
		ir.mergeProjectedIndexed(proj, e.Tuple, &e.Payload)
		return true
	})
}
