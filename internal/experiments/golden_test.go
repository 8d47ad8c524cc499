package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"testing"
)

// reportDigests are the sha256 digests of each deterministic experiment's
// report at the scale TestReportsGolden runs. Every row of them is a size, a
// count or a simulated time, so a digest moves only when generated code or
// the simulator does. buildtime is left out: its rows are wall-clock times.
var reportDigests = map[string]string{
	"fig1":       "8e4c2751007e19ff306fb13f7e851f8338e3e75bfea0b5c019fb22877eebf558",
	"table1":     "1ca8ba6c92ab5059ee031b15e25bd1bd04e03c1f5571aa94f4011d67fba7e623",
	"patterns":   "1d06f465dca295f530736549c9e66a0dc99c26e583991f0f5c842c438fe83915",
	"fig12":      "00caccc2401dd442aa2ab3060a20494cc47fd34a90cfbfe38efabbb94df4a259",
	"fig13":      "7dd2fdfaf3ea9dfebfbf546e391f63830e343f70a69451a96abc544914448e44",
	"table4":     "c71163d71eb93d89425e4137d1753aea1c660eb35735855c0a26f206c9c3aeaa",
	"generality": "3c8fa64461592825ef172981fe0cacea6ce2d66f6a117774f71a2dfc47394797",
	"datalayout": "8a826476aa6a5ea900e41e92f964e9f70fe3ba5d5a00e1a1357fa37afd84575e",
}

// TestReportsGolden runs the experiments as `experiments -scale 0.3
// -samples 1` does and compares each report's digest with reportDigests.
// fig13's device grid is the slow one, so it runs only without -short.
func TestReportsGolden(t *testing.T) {
	const scale = 0.3
	for _, e := range []struct {
		name string
		run  func(w io.Writer) error
	}{
		{"fig1", func(w io.Writer) error { _, err := RunFig1(w, 8, scale+0.4); return err }},
		{"table1", func(w io.Writer) error { _, err := RunTable1(w, scale); return err }},
		{"patterns", func(w io.Writer) error { _, err := RunPatterns(w, scale); return err }},
		{"fig12", func(w io.Writer) error { _, err := RunFig12(w, scale, 6); return err }},
		{"fig13", func(w io.Writer) error { _, err := RunFig13(w, scale, 1); return err }},
		{"table4", func(w io.Writer) error {
			if _, err := RunTable4(w); err != nil {
				return err
			}
			_, err := RunPathological(w)
			return err
		}},
		{"generality", func(w io.Writer) error { _, err := RunGenerality(w, scale); return err }},
		{"datalayout", func(w io.Writer) error { _, err := RunDataLayout(w, scale); return err }},
	} {
		t.Run(e.name, func(t *testing.T) {
			if e.name == "fig13" && testing.Short() {
				t.Skip("fig13 grid is slow")
			}
			var report bytes.Buffer
			if err := e.run(&report); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(report.Bytes())
			if got := hex.EncodeToString(sum[:]); got != reportDigests[e.name] {
				t.Errorf("report digest %s, want %s; report:\n%s", got, reportDigests[e.name], report.String())
			}
		})
	}
}
