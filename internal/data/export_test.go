package data

// GenSpan exports the publish-generation span to the external tests.
const GenSpan = genSpan

// ArenaFreshBlocks reports how many entry-run and directory blocks r's
// snapshot arena has allocated fresh (not recycled from its freelists) so
// far; 0 for a relation never snapshotted.
func ArenaFreshBlocks[P any](r *Relation[P]) int {
	if r.snap == nil {
		return 0
	}
	return r.snap.arena.runs.fresh + r.snap.arena.dirs.fresh
}
