package chaos

import "testing"

// TestPointRegistryBackstop is the one runtime backstop for the
// injection-point registry. The full invariant — every point named, names
// non-empty, unique, kebab-case, no call site off the registry — is
// enforced at lint time by the chaosreg analyzer (the point-by-point name
// table this test used to duplicate now lives only in chaos.go); what
// remains here is the runtime behavior lint cannot see:
// String's bounds check and the Points() sweep length.
func TestPointRegistryBackstop(t *testing.T) {
	for _, p := range Points() {
		if p.String() == "" || p.String() == "unknown" {
			t.Errorf("Point(%d).String() = %q; registry entry missing at runtime", p, p.String())
		}
	}
	if got := Point(200).String(); got != "unknown" {
		t.Errorf("out-of-range String() = %q, want unknown", got)
	}
	if got := len(Points()); got != int(NumPoints) {
		t.Errorf("Points() has %d entries, want %d", got, NumPoints)
	}
}

// TestFireRespectsBuildTag verifies the central gating property: with the
// chaos tag an armed point fires, without it Fire stays constant-false even
// when armed (the production no-op contract).
func TestFireRespectsBuildTag(t *testing.T) {
	defer Reset()
	Set(EnqCAS2Fail, 1)
	firedOnce := false
	for i := 0; i < 256; i++ {
		if Fire(EnqCAS2Fail) {
			firedOnce = true
		}
		Delay(EnqCAS2Fail) // must never panic in either build
	}
	if firedOnce != Enabled {
		t.Fatalf("armed point fired=%v with Enabled=%v", firedOnce, Enabled)
	}
	if !Enabled && Fired(EnqCAS2Fail) != 0 {
		t.Fatalf("Fired nonzero in a no-op build")
	}
	if Enabled && Fired(EnqCAS2Fail) == 0 {
		t.Fatalf("Fired counter did not advance in a chaos build")
	}
}
