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
	"fig1":       "3a948d09bd0181410cff02135b5f0003287dfb747c9c7eb4f7c91f9eaa1bb867",
	"table1":     "ec8c6285b2655b051ae7f90c2c0b7927a2f944490d4e2bb64a4663ddc110f329",
	"patterns":   "97f1bd6eaeebe17747e35f4ace683e0450d8b513293028d9632c7eb7a1d5206d",
	"fig12":      "859c9b98a35cbf02d0f6872cf1ee20bdbcc4ffde39dcdb3374787965a56a96e0",
	"fig13":      "e328a8eb867dec5bb64e89c517cd657049cd4d7ac9f338c7cfe095b1f6419c0a",
	"table4":     "51d76e9a6516b2d9904524eb7ed729d51df499d14b2876f9b03cb3f2742ad507",
	"generality": "af970f18eec513990bbe951feaf683dc1122be6995688fc3c79bb08f207743b8",
	"datalayout": "621bf4c109268ae19def1116018a3e0f7b7f4513378054c43efd9f32da022c88",
}

// TestReportsGolden runs the experiments as `experiments -scale 0.3` does
// and compares each report's digest with reportDigests.
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
		{"fig13", func(w io.Writer) error { _, err := RunFig13(w, scale); return err }},
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
