package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// do issues one request and returns status, headers, and body.
func do(t *testing.T, method, url, body string) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// TestV1AliasesRetired pins the end of the unversioned aliases: each path
// answers only under /v1/, and its unversioned twin is 404.
func TestV1AliasesRetired(t *testing.T) {
	srv := newTestServer(t, quickConfig())
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const body = `{"benchmark":"CG","procs":16}`
	cases := []struct {
		method, path, body string
	}{
		{http.MethodPost, "/design", body},
		{http.MethodGet, "/benchmarks", ""},
		{http.MethodGet, "/healthz", ""},
	}
	for _, tc := range cases {
		t.Run(tc.method+" "+tc.path, func(t *testing.T) {
			if v1, b := do(t, tc.method, ts.URL+"/v1"+tc.path, tc.body); v1.StatusCode != http.StatusOK {
				t.Fatalf("/v1%s: status %d: %s", tc.path, v1.StatusCode, b)
			}
			if al, _ := do(t, tc.method, ts.URL+tc.path, tc.body); al.StatusCode != http.StatusNotFound {
				t.Errorf("%s %s: status %d, want 404", tc.method, tc.path, al.StatusCode)
			}
		})
	}

	// The replay endpoint too: the primed key resolves only under /v1/.
	resp, _ := do(t, http.MethodPost, ts.URL+"/v1/design", body)
	key := resp.Header.Get("X-Nocd-Pattern-Hash")
	if v1, _ := do(t, http.MethodGet, ts.URL+"/v1/design/"+key, ""); v1.StatusCode != http.StatusOK {
		t.Errorf("GET /v1/design/{key}: status %d, want 200", v1.StatusCode)
	}
	if al, _ := do(t, http.MethodGet, ts.URL+"/design/"+key, ""); al.StatusCode != http.StatusNotFound {
		t.Errorf("GET /design/{key}: status %d, want 404", al.StatusCode)
	}
}

// decodeEnvelope asserts a response is the uniform error envelope and
// returns its code.
func decodeEnvelope(t *testing.T, resp *http.Response, body []byte) string {
	t.Helper()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("error Content-Type = %q, want application/json", ct)
	}
	var env ErrorResponse
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("error body is not the envelope: %v (%q)", err, body)
	}
	if env.Error.Code == "" || env.Error.Message == "" {
		t.Errorf("envelope missing code or message: %q", body)
	}
	return env.Error.Code
}

// TestErrorEnvelope walks every error status the surface can produce and
// pins that each carries the typed JSON envelope with its documented code.
func TestErrorEnvelope(t *testing.T) {
	t.Run("400 bad_request", func(t *testing.T) {
		srv := newTestServer(t, quickConfig())
		ts := httptest.NewServer(srv)
		defer ts.Close()
		resp, b := do(t, http.MethodPost, ts.URL+"/v1/design", `{"benchmark":`)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400", resp.StatusCode)
		}
		if code := decodeEnvelope(t, resp, b); code != CodeBadRequest {
			t.Errorf("code = %q, want %q", code, CodeBadRequest)
		}
	})

	// A non-finite time in an inline trace is a client error caught by
	// pattern validation, before any key or synthesis work.
	t.Run("400 bad_request non-finite trace", func(t *testing.T) {
		srv := newTestServer(t, quickConfig())
		ts := httptest.NewServer(srv)
		defer ts.Close()
		for _, tr := range []string{
			"noctrace v1\nprocs 2\nmsg 0 0 1 NaN NaN 8\n",
			"noctrace v1\nprocs 2\nmsg 0 0 1 0 +Inf 8\n",
			"noctrace v1\nprocs 2\nmsg 0 0 1 0 1 8\nphase p 0 1 NaN 0\n",
		} {
			body, _ := json.Marshal(DesignRequest{Trace: tr})
			resp, b := do(t, http.MethodPost, ts.URL+"/v1/design", string(body))
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("%q: status = %d, want 400", tr, resp.StatusCode)
			}
			if code := decodeEnvelope(t, resp, b); code != CodeBadRequest {
				t.Errorf("%q: code = %q, want %q", tr, code, CodeBadRequest)
			}
			if !strings.Contains(string(b), "non-finite") {
				t.Errorf("%q: error %q does not name the non-finite time", tr, b)
			}
		}
		if got := srv.Metrics().Counter("synth.runs"); got != 0 {
			t.Errorf("synth.runs = %d, want 0", got)
		}
	})

	t.Run("404 not_found", func(t *testing.T) {
		srv := newTestServer(t, quickConfig())
		ts := httptest.NewServer(srv)
		defer ts.Close()
		resp, b := do(t, http.MethodGet, ts.URL+"/v1/design/sha256:"+strings.Repeat("0", 64), "")
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("status = %d, want 404", resp.StatusCode)
		}
		if code := decodeEnvelope(t, resp, b); code != CodeNotFound {
			t.Errorf("code = %q, want %q", code, CodeNotFound)
		}
		if got := srv.Metrics().Counter("serve.design_fetch_miss"); got != 1 {
			t.Errorf("serve.design_fetch_miss = %d, want 1", got)
		}
	})

	t.Run("429 bulk_saturated", func(t *testing.T) {
		cfg := quickConfig()
		cfg.BulkMaxInFlight = -1 // bulk lane disabled: every bulk request throttles
		srv := newTestServer(t, cfg)
		ts := httptest.NewServer(srv)
		defer ts.Close()
		resp, b := do(t, http.MethodPost, ts.URL+"/v1/design", `{"benchmark":"CG","procs":16,"lane":"bulk"}`)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("status = %d, want 429 (%s)", resp.StatusCode, b)
		}
		if code := decodeEnvelope(t, resp, b); code != CodeBulkSaturated {
			t.Errorf("code = %q, want %q", code, CodeBulkSaturated)
		}
		if got := srv.Metrics().Counter("serve.lane_bulk_throttled"); got != 1 {
			t.Errorf("serve.lane_bulk_throttled = %d, want 1", got)
		}
	})

	t.Run("503 queue_full", func(t *testing.T) {
		gate := newGate()
		cfg := quickConfig()
		cfg.Synth.Obs = gate
		cfg.MaxInFlight = 1
		cfg.MaxQueue = -1
		srv := newTestServer(t, cfg)
		ts := httptest.NewServer(srv)
		defer ts.Close()
		done := make(chan struct{})
		go func() {
			defer close(done)
			postDesign(t, ts.URL, `{"benchmark":"CG","procs":16}`)
		}()
		<-gate.started
		resp, b := do(t, http.MethodPost, ts.URL+"/v1/design", `{"benchmark":"FFT","procs":16}`)
		close(gate.release)
		<-done
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("status = %d, want 503 (%s)", resp.StatusCode, b)
		}
		if code := decodeEnvelope(t, resp, b); code != CodeQueueFull {
			t.Errorf("code = %q, want %q", code, CodeQueueFull)
		}
	})

	t.Run("504 timeout", func(t *testing.T) {
		cfg := quickConfig()
		cfg.Timeout = time.Nanosecond
		srv := newTestServer(t, cfg)
		ts := httptest.NewServer(srv)
		defer ts.Close()
		resp, b := do(t, http.MethodPost, ts.URL+"/v1/design", `{"benchmark":"CG","procs":16}`)
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("status = %d, want 504 (%s)", resp.StatusCode, b)
		}
		if code := decodeEnvelope(t, resp, b); code != CodeTimeout {
			t.Errorf("code = %q, want %q", code, CodeTimeout)
		}
		if got := srv.Metrics().Counter("serve.timeout"); got != 1 {
			t.Errorf("serve.timeout = %d, want 1", got)
		}
	})
}

// TestLaneValidation pins lane parsing: empty defaults to interactive,
// unknown lanes are client errors, and the per-lane counters tick.
func TestLaneValidation(t *testing.T) {
	srv := newTestServer(t, quickConfig())
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, b := do(t, http.MethodPost, ts.URL+"/v1/design", `{"benchmark":"CG","procs":16,"lane":"express"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown lane: status %d (%s)", resp.StatusCode, b)
	}
	if !strings.Contains(string(b), "unknown lane") {
		t.Errorf("error body %q does not mention the lane", b)
	}

	if resp, b = do(t, http.MethodPost, ts.URL+"/v1/design", `{"benchmark":"CG","procs":16}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("default lane: status %d (%s)", resp.StatusCode, b)
	}
	if got := srv.Metrics().Counter("serve.lane_interactive"); got != 1 {
		t.Errorf("serve.lane_interactive = %d, want 1", got)
	}

	// The lane must not change the cache key: a bulk repeat of the same
	// pattern is a hit, not a second synthesis.
	resp, _ = do(t, http.MethodPost, ts.URL+"/v1/design", `{"benchmark":"CG","procs":16,"lane":"bulk"}`)
	if got := resp.Header.Get("X-Nocd-Cache"); got != "hit" {
		t.Errorf("bulk repeat cache header = %q, want hit (lane leaked into the key)", got)
	}
	if got := srv.Metrics().Counter("synth.runs"); got != 1 {
		t.Errorf("synth.runs = %d, want 1", got)
	}
}
