package server

import (
	parsvd "goparsvd"
)

// View is one published snapshot of a model's decomposition, produced by
// the ingest loop after every applied update (copy-on-publish).
// Result and Stats are deep copies that share no storage with the engine,
// so a View handed to a reader stays valid and bit-stable forever — no
// matter how many updates the writer applies after it. Readers must treat
// a View as immutable; a reader that wants to scribble on the matrices
// takes its own Result.Clone().
type View struct {
	// Version is the monotone update counter at publish time
	// (parsvd.Stats.Updates): two Views compare fresher-than by it.
	Version uint64
	// Result is the decomposition as of Version: modes, spectrum,
	// counters. Owned by the view layer; read-only for consumers.
	Result *parsvd.Result
	// Stats is the introspection snapshot taken at publish time.
	Stats parsvd.Stats
	// Configuration is the SVD's effective configuration as of Version
	// (a merge can change the backend): the options a checkpoint built
	// from Result carries.
	Configuration parsvd.Configuration
	// MergeBound is the accumulated merge truncation bound as of Version.
	MergeBound float64
}
