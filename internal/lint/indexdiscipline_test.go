package lint

import (
	"strings"
	"testing"
)

func indexFixturePass(p *Package) *IndexDiscipline {
	return &IndexDiscipline{
		TargetPkg:    p.Path,
		Root:         "(*BEng).Step",
		PosArrays:    map[string]bool{"hot": true},
		SlotArrays:   map[string]bool{"aIdx": true},
		SlotSlices:   map[string]bool{"act": true},
		SlotParams:   map[string]bool{"id": true},
		PosParams:    map[string]bool{"pos": true},
		PosDraws:     map[string]bool{"Intn": true},
		PosProducers: map[string]bool{"nextSet": true},
		SlotFactor:   "numVCs",
	}
}

func TestIndexDisciplineFixture(t *testing.T) {
	p := loadFixture(t, "indexbad")
	checkFixture(t, "indexbad", indexFixturePass(p))
}

// TestIndexDisciplineMissingRoot: renaming the audited entry point must
// surface as a finding, not silently disarm the discipline.
func TestIndexDisciplineMissingRoot(t *testing.T) {
	p := loadFixture(t, "indexbad")
	pass := indexFixturePass(p)
	pass.Root = "(*BEng).Tick"
	got := Run([]*Package{p}, []Pass{pass})
	if len(got) != 1 || !strings.Contains(got[0].Msg, "(*BEng).Tick not found") {
		t.Errorf("missing root reported as %v, want one configuration finding", got)
	}
}
