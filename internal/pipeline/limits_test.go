package pipeline

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"outliner/internal/frontend"
)

// TestDeepSourcesFailStructured: a source nested past the parser's limit
// fails the build with a positioned *frontend.Error in bounded time and
// memory. Without the limit, the 3 M nested parentheses and the 200 k nested
// ifs overflow the parser's stack and the 400 k-term sum overflows a later
// pass walking its left-deep tree: a fatal error no recover sees, which ends
// the process. The parser lexes on demand, so rejecting a source costs what
// was lexed before the limit fired, not a token per source byte.
func TestDeepSourcesFailStructured(t *testing.T) {
	for _, tc := range []struct{ name, src string }{
		{"nested-parens", "func main() {\n  print(" + strings.Repeat("(", 3_000_000) + "1" + strings.Repeat(")", 3_000_000) + ")\n}\n"},
		{"long-sum", "func main() {\n  print(1" + strings.Repeat("+1", 400_000) + ")\n}\n"},
		{"nested-if", "func main() {\n" + strings.Repeat("if true {\n", 200_000) + "print(1)\n" + strings.Repeat("}\n", 200_000) + "}\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			start := time.Now()
			_, err := Build([]Source{{Name: "Deep", Files: map[string]string{"deep.sl": tc.src}}}, Default)
			elapsed := time.Since(start)
			runtime.ReadMemStats(&after)
			var fe *frontend.Error
			if !errors.As(err, &fe) || !strings.Contains(fe.Msg, "nesting") {
				t.Fatalf("build error = %v, want the parser's nesting limit", err)
			}
			if elapsed > 30*time.Second {
				t.Fatalf("rejecting the source took %v", elapsed)
			}
			const maxAlloc = 16 << 20
			if a := after.TotalAlloc - before.TotalAlloc; a > maxAlloc {
				t.Fatalf("rejecting the source allocated %d bytes; bound %d", a, maxAlloc)
			} else {
				t.Logf("rejected in %v, %d bytes allocated", elapsed, a)
			}
		})
	}
}
