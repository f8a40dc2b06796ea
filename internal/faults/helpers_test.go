package faults

import (
	"testing"

	"repro/internal/checkers"
	"repro/internal/compiler"
)

// mustCompileChecker compiles one corpus checker into a runtime.
func mustCompileChecker(t *testing.T, key string) *compiler.Runtime {
	t.Helper()
	info := checkers.MustParse(key)
	prog, err := compiler.Compile(info, compiler.Options{Name: key})
	if err != nil {
		t.Fatal(err)
	}
	return &compiler.Runtime{Prog: prog}
}
