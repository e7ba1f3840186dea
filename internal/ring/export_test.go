package ring

// Random generators and equalities shared with the external ring_test
// package, which can import the relational ring without an import cycle.
var (
	GenTriple = genTriple
	TripleEq  = tripleEq
	GenDegMap = genDegMap
	DegMapEq  = degMapEq
)
