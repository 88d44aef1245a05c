package chaosreg_test

import (
	"testing"

	"lcrq/internal/analysis/chaosreg"
	"lcrq/internal/lint/linttest"
)

func TestChaosreg(t *testing.T) {
	linttest.Run(t, chaosreg.Analyzer, "chaosregtest")
}

// TestChaosregCompleteness runs the completeness rule, which applies to
// every enum-indexed name table, annotated or not.
func TestChaosregCompleteness(t *testing.T) {
	linttest.Run(t, chaosreg.Analyzer, "registrytest")
}
