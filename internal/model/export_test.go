package model

// The map-based oracle, exported to the external kernel tests that need
// NAS fixtures (package nas imports model).
type RefPairSet = pairSet

var (
	NewRefPairSet               = newPairSet
	RefContentionSetFromCliques = contentionSetFromCliques
	RefContentionFree           = contentionFree
)
