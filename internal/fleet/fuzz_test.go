package fleet

import (
	"context"
	"errors"
	"testing"
	"time"
)

// FuzzSubmitJSON feeds arbitrary POST /sessions bodies to a drained
// scheduler, so no session ever runs. Every body must come back as an
// error — a decode, validation or compile error, or ErrDraining for a
// job that would otherwise have been admitted — never a panic, and no
// body may register a session.
func FuzzSubmitJSON(f *testing.F) {
	admissible := `{"tool":"instcount_basic","victim":"spin","loop":3000,"budget":"5%"}`
	for _, seed := range []string{
		admissible,
		`{"tool_src":"inst I { before I { } }","victim":"spin","backend":"pin"}`,
		`{"tool_src":"inst I {","victim":"spin"}`,
		`{"tool":"no_such_tool","victim":"spin"}`,
		`{"tool":"instcount_basic","victim":"no_such_victim"}`,
		`{"tool":"instcount_basic","tool_src":"init { }","victim":"spin"}`,
		`{"tool":"instcount_basic","victim":"spin","backend":"qemu"}`,
		`{"tool":"instcount_basic","victim":"spin","restarts":-1}`,
		`{"tool":"instcount_basic","victim":"spin","budget":"lots"}`,
		`{"tool":"instcount_basic","victim":"spin","fuel":18446744073709551615}`,
		`{"unknown":1}`,
		`{"tool":`,
		``,
		`null`,
		`[]`,
		`{} {}`,
	} {
		f.Add([]byte(seed))
	}
	s := NewScheduler(Config{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		f.Fatal(err)
	}
	// The admissible seed reaches the admission gate: the target
	// exercises the whole Submit path, not just the decoder.
	if _, err := s.SubmitJSON([]byte(admissible)); !errors.Is(err, ErrDraining) {
		f.Fatalf("admissible job on a drained scheduler: %v, want ErrDraining", err)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		resp, err := s.SubmitJSON(body)
		if err == nil {
			t.Fatalf("drained scheduler admitted %q: %v", body, resp)
		}
		if n := len(s.Fleet().Sessions()); n != 0 {
			t.Fatalf("%q registered %d sessions", body, n)
		}
	})
}
