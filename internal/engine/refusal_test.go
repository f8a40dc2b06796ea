package engine_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/checkers"
	"repro/internal/compiler"
	"repro/internal/dataplane"
	"repro/internal/difftest"
	"repro/internal/engine"
	"repro/internal/netsim"
	"repro/internal/pipeline"
)

// TestNoVMFormRefused pins where a program without a VM form stops: where
// it is attached. Hydra never deploys a checker that does not compile
// (§4.2), so no packet path links around one: engine.New,
// engine.NewSequential, Switch.AttachChecker and Host.AttachNIC panic
// naming the program and its VMErr, and difftest.Link returns the error.
func TestNoVMFormRefused(t *testing.T) {
	// An apply of an undeclared table is the one thing bytecode.Compile
	// refuses.
	bad := &compiler.Runtime{Prog: &pipeline.Program{Name: "no-vm-form", Telemetry: []pipeline.Op{pipeline.ApplyOp{Table: "undeclared"}}}}
	waypointing, _ := checkers.ByKey("waypointing")
	good := &compiler.Runtime{Prog: compileSrc(t, "waypointing", waypointing.Source)}
	chks := []engine.Checker{{Name: "waypointing", RT: good}, {Name: "no-vm-form", RT: bad}}
	sim := netsim.NewSimulator()
	for _, c := range []struct {
		name   string
		attach func()
	}{
		{"engine.New", func() { engine.New(engine.Config{Shards: 2, Checkers: chks}) }},
		{"engine.NewSequential", func() { engine.NewSequential(engine.Config{Checkers: chks}) }},
		{"Switch.AttachChecker", func() { netsim.NewSwitch(sim, 1, "s1").AttachChecker(bad, nil) }},
		{"Host.AttachNIC", func() {
			netsim.NewHost(sim, "h1", dataplane.MACFromUint64(1), dataplane.MustIP4("10.0.0.1")).AttachNIC(bad, nil)
		}},
	} {
		msg := func() (msg string) {
			defer func() { msg = fmt.Sprint(recover()) }()
			c.attach()
			return
		}()
		if !strings.Contains(msg, "no-vm-form") || !strings.Contains(msg, "undeclared") {
			t.Errorf("%s: panic %q, want one naming no-vm-form and its undeclared table", c.name, msg)
		}
	}
	if _, err := difftest.Link(good, bad); err == nil || !strings.Contains(err.Error(), "undeclared") {
		t.Errorf("difftest.Link: error %v, want the undeclared-table error", err)
	}
}
