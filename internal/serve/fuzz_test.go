package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
)

// FuzzDesignRequest checks the request parser on arbitrary bodies: it
// returns a pattern or a *badRequestError, never another error and never a
// panic. Named workloads are generated at their requested size, which no
// bound limits yet, so inputs asking for more than 64 processors or 4
// iterations are skipped to keep each execution small.
func FuzzDesignRequest(f *testing.F) {
	for _, s := range []string{
		`{"benchmark":"CG","procs":16}`,
		`{"benchmark":"BT","procs":9,"iterations":2,"seed":3,"restarts":2}`,
		`{"benchmark":"ring-allreduce","procs":8,"lane":"bulk"}`,
		`{"benchmark":"tree-broadcast","procs":12}`,
		`{"benchmark":"LU","procs":16}`,
		`{"benchmark":"CG","procs":16,"hier":{"clusters":"4","max_gateways":2}}`,
		`{"benchmark":"CG","procs":16,"hier":{"clusters":"flow:x"}}`,
		`{"trace":"noctrace v1\nprocs 2\nmsg 0 0 1 0 1 8\nphase p 0 1 0 0\n"}`,
		`{"trace":"noctrace v1\r\nprocs 2\r\nmsg 0 0 1 NaN NaN 8\r\n"}`,
		`{"trace":"noctrace v1\nprocs 2\nmsg 0 0 1 0 +Inf 8\n"}`,
		`{"trace":"noctrace v1\nprocs 2\n","benchmark":"CG","procs":16}`,
		`{"benchmark":"CG","procs":16,"restarts":-1}`,
		`{"benchmark":"CG","procs":-4}`,
		`{"bench":"CG"}`,
		`{"benchmark":`,
		``,
	} {
		f.Add([]byte(s))
	}
	srv, err := New(quickConfig())
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		// Read the sizes the way the parser does (first JSON value only,
		// whatever else fails) so no oversized request slips through.
		var req DesignRequest
		json.NewDecoder(bytes.NewReader(raw)).Decode(&req)
		if req.Procs > 64 || req.Iterations > 4 {
			t.Skip("workload size outside the fuzzed range")
		}
		pat, _, _, _, err := srv.parseDesignRequest(raw)
		if err != nil {
			var bad *badRequestError
			if !errors.As(err, &bad) {
				t.Fatalf("parseDesignRequest(%q): untyped error %T: %v", raw, err, err)
			}
			return
		}
		if pat == nil {
			t.Fatalf("parseDesignRequest(%q): no pattern and no error", raw)
		}
		if err := pat.Validate(); err != nil {
			t.Fatalf("parseDesignRequest(%q): invalid pattern: %v", raw, err)
		}
	})
}
