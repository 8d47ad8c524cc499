package pipeline

import (
	"errors"
	"strings"
	"testing"
	"time"

	"outliner/internal/frontend"
	"outliner/internal/raceflag"
)

// TestDeepSourcesFailStructured: a source nested past the parser's limit
// fails the build with a positioned *frontend.Error in bounded time. Without
// the limit, the 3 M nested parentheses overflow the parser's stack and the
// 400 k-term sum overflows a later pass walking its left-deep tree: a fatal
// error no recover sees, which ends the process.
func TestDeepSourcesFailStructured(t *testing.T) {
	for _, tc := range []struct{ name, src string }{
		{"nested-parens", "func main() {\n  print(" + strings.Repeat("(", 3_000_000) + "1" + strings.Repeat(")", 3_000_000) + ")\n}\n"},
		{"long-sum", "func main() {\n  print(1" + strings.Repeat("+1", 400_000) + ")\n}\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if raceflag.Enabled && tc.name == "nested-parens" {
				// The source lexes into about 1 GB of tokens, which the race
				// detector's shadow memory would nearly triple; the parse it
				// checks runs on one goroutine.
				t.Skip("too large for the race detector")
			}
			start := time.Now()
			_, err := Build([]Source{{Name: "Deep", Files: map[string]string{"deep.sl": tc.src}}}, Default)
			var fe *frontend.Error
			if !errors.As(err, &fe) || !strings.Contains(fe.Msg, "nesting") {
				t.Fatalf("build error = %v, want the parser's nesting limit", err)
			}
			if d := time.Since(start); d > 30*time.Second {
				t.Fatalf("rejecting the source took %v", d)
			}
		})
	}
}
