package core

// The pluggable per-core timing model. A Model owns a core's dispatch
// policy — when the next trace op starts, how many memory ops may be in
// flight, and what happens on a miss — while the System owns everything
// the models share: the cache hierarchy walk, the secure persist paths,
// the counter machinery, and the metrics. Models are registered by name
// (config.CoreModel / config.CoreModels select them per core), so
// experiments sweep the model as a grid axis exactly like schemes.

import (
	"fmt"

	"supermem/internal/config"
)

// Model is one core's timing model. Implementations live in this
// package (inorder.go, ooo.go) and are built through the registry; the
// methods are unexported because a model needs the System's internals.
//
// The contract:
//   - start schedules the core's first dispatch at cycle 0; after that
//     the model keeps itself scheduled until the trace source drains,
//     then sets its coreState.done.
//   - step is the target of the model's stepEv events: one dispatch
//     action (in-order: execute the next op; OoO: the dispatch loop or
//     a slot completion).
//   - opDone is the opJob continuation: the last write group of an op
//     was accepted into the ADR domain at cycle now.
//   - a trace.Reset op goes to System.noteReset, which zeroes the
//     core's metrics block; a model keeps no warmup state of its own.
//
// Latency charge points are part of the contract and must be explicit
// per model: reads charge the core at completion (readyAt), flush-side
// counter fetch and AES charge at dispatch, eviction-side persists are
// never core-visible, and write-queue stalls charge at group acceptance
// (opJob.Accepted). Both shipped models follow this table; the in-order
// goldens in golden_test.go pin it.
type Model interface {
	stepper
	opDoner
	start()
}

// modelBuilder constructs a model for one core. The builder wires the
// core's gb/mem hooks (coreState.gb, coreState.mem) to the model's own
// buffers.
type modelBuilder func(s *System, c *coreState) Model

// models is the registry. Adding a model is: implement Model, add a
// config name constant, register the builder here (no switches — the
// same data-driven pattern as the scheme registry).
var models = map[string]modelBuilder{
	config.CoreInOrder: newInOrder,
	config.CoreOoO:     newOoO,
}

// newModel resolves a config core-model name through the registry.
func newModel(s *System, c *coreState, name string) (Model, error) {
	if name == "" {
		name = config.CoreInOrder
	}
	b, ok := models[name]
	if !ok {
		return nil, fmt.Errorf("core: unknown core model %q (registered: %q, %q)", name, config.CoreInOrder, config.CoreOoO)
	}
	return b(s, c), nil
}
