package core

import "ita/internal/model"

// Hooks for the engine-level tests of the external test package
// (package core_test), which build their engines with shard.New.

// DefaultTargetMargin is the floor target margin NewMaintainer applies
// when the configuration leaves it zero.
const DefaultTargetMargin = defaultTargetMargin

// Rescan runs one full-window recomputation of query id's view.
func (e *Naive) Rescan(id model.QueryID) { e.rescan(e.queries[id]) }
