package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDiskStoreSurvivesRestart is the durability acceptance pin: a design
// synthesized by one server instance is served as a cache hit by a fresh
// instance over the same -data-dir, byte-identically and without
// re-entering Synthesize, with the warm index rebuilt from the scan.
func TestDiskStoreSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := quickConfig()
	cfg.DataDir = dir

	srv1 := newTestServer(t, cfg)
	ts1 := httptest.NewServer(srv1)
	const body = `{"benchmark":"CG","procs":16}`
	resp1, b1 := postDesign(t, ts1.URL, body)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first instance: status %d: %s", resp1.StatusCode, b1)
	}
	ts1.Close()
	if got := srv1.Metrics().Counter("serve.store_disk_write"); got != 1 {
		t.Fatalf("serve.store_disk_write = %d, want 1", got)
	}

	// "Restart": a brand-new server over the same directory.
	srv2 := newTestServer(t, cfg)
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	col := srv2.Metrics()
	if got := col.Counter("serve.store_disk_scanned"); got != 1 {
		t.Fatalf("serve.store_disk_scanned = %d, want 1", got)
	}
	if got := col.Counter("serve.warm_rebuilt"); got != 1 {
		t.Errorf("serve.warm_rebuilt = %d, want 1 (warm index not rebuilt from disk)", got)
	}
	if got := srv2.warm.size(); got != 1 {
		t.Errorf("warm index holds %d entries after restart, want 1", got)
	}

	resp2, b2 := postDesign(t, ts2.URL, body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-restart request: status %d", resp2.StatusCode)
	}
	if got := resp2.Header.Get("X-Nocd-Cache"); got != "hit" {
		t.Errorf("post-restart cache header = %q, want hit", got)
	}
	if !bytes.Equal(b1, b2) {
		t.Error("post-restart replay is not byte-identical")
	}
	if got := col.Counter("synth.runs"); got != 0 {
		t.Errorf("synth.runs = %d after restart hit, want 0", got)
	}
	// The hit came off disk and was promoted into memory.
	if got := col.Counter("serve.store_disk_hit"); got != 1 {
		t.Errorf("serve.store_disk_hit = %d, want 1", got)
	}
	if resp3, _ := postDesign(t, ts2.URL, body); resp3.Header.Get("X-Nocd-Cache") != "hit" {
		t.Error("second post-restart request missed")
	}
	if got := col.Counter("serve.store_mem_hit"); got != 1 {
		t.Errorf("serve.store_mem_hit = %d, want 1 (promotion did not stick)", got)
	}
}

// TestDiskStoreSkipsCorruption pins the crash-safety scan: a truncated
// entry file and a stray temp file — the footprint of a crash between
// temp-write and rename — are both skipped and counted, never served, and
// the key re-synthesizes cleanly.
func TestDiskStoreSkipsCorruption(t *testing.T) {
	dir := t.TempDir()
	cfg := quickConfig()
	cfg.DataDir = dir

	srv1 := newTestServer(t, cfg)
	ts1 := httptest.NewServer(srv1)
	const body = `{"benchmark":"CG","procs":16}`
	postDesign(t, ts1.URL, body)
	ts1.Close()

	// Corrupt the one entry file (truncate to half) and fake an interrupted
	// write alongside it.
	des, err := os.ReadDir(dir)
	if err != nil || len(des) != 1 {
		t.Fatalf("ReadDir: %v (%d entries, want 1)", err, len(des))
	}
	path := filepath.Join(dir, des[0].Name())
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, storeTempPrefix+"123456"), b, 0o644); err != nil {
		t.Fatal(err)
	}

	srv2 := newTestServer(t, cfg)
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	col := srv2.Metrics()
	if got := col.Counter("serve.store_disk_corrupt"); got != 2 {
		t.Errorf("serve.store_disk_corrupt = %d, want 2 (truncated + stray temp)", got)
	}
	if got := col.Counter("serve.store_disk_scanned"); got != 0 {
		t.Errorf("serve.store_disk_scanned = %d, want 0", got)
	}

	// The key is gone; the server must synthesize it afresh, not serve the
	// corrupt bytes.
	resp, _ := postDesign(t, ts2.URL, body)
	if got := resp.Header.Get("X-Nocd-Cache"); got != "miss" {
		t.Errorf("post-corruption cache header = %q, want miss", got)
	}
	if got := col.Counter("synth.runs"); got != 1 {
		t.Errorf("synth.runs = %d, want 1", got)
	}
}

// TestDiskStoreStaleV1Entry pins the key-scheme change on disk: an intact
// entry an older server stored under a v1 "sha256:" key is counted on
// serve.store_disk_stale (not as corruption), left untouched, and neither
// served nor indexed; the request it answered misses, synthesizes, and is
// stored as a v2 file next to the stale one.
func TestDiskStoreStaleV1Entry(t *testing.T) {
	dir := t.TempDir()
	cfg := quickConfig()
	cfg.DataDir = dir
	const body = `{"benchmark":"CG","procs":16}`

	// Build the v1 fixture from a real entry: same body, v1 key, v1 name.
	srv1 := newTestServer(t, cfg)
	ts1 := httptest.NewServer(srv1)
	resp1, b1 := postDesign(t, ts1.URL, body)
	ts1.Close()
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first instance: status %d: %s", resp1.StatusCode, b1)
	}
	v2Key := resp1.Header.Get("X-Nocd-Pattern-Hash")
	pat, opt, _, _, err := srv1.parseDesignRequest([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	v1Key := keyV1(pat, opt)
	raw, err := os.ReadFile(filepath.Join(dir, fileName(v2Key)))
	if err != nil {
		t.Fatal(err)
	}
	var sf storeFile
	if err := json.Unmarshal(raw, &sf); err != nil {
		t.Fatal(err)
	}
	sf.Key = v1Key
	v1Raw, err := json.Marshal(sf)
	if err != nil {
		t.Fatal(err)
	}
	v1Path := filepath.Join(dir, strings.TrimPrefix(v1Key, "sha256:")+storeSuffix)
	if err := os.WriteFile(v1Path, v1Raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, fileName(v2Key))); err != nil {
		t.Fatal(err)
	}

	srv2 := newTestServer(t, cfg)
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	col := srv2.Metrics()
	for name, want := range map[string]int64{
		"serve.store_disk_stale":   1,
		"serve.store_disk_corrupt": 0,
		"serve.store_disk_scanned": 0,
		"serve.warm_rebuilt":       0,
	} {
		if got := col.Counter(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if resp, _ := do(t, http.MethodGet, ts2.URL+"/v1/design/"+v1Key, ""); resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET by v1 key: status %d, want 404", resp.StatusCode)
	}

	resp2, _ := postDesign(t, ts2.URL, body)
	if got := resp2.Header.Get("X-Nocd-Cache"); got != "miss" {
		t.Errorf("cache header = %q, want miss", got)
	}
	if got := resp2.Header.Get("X-Nocd-Pattern-Hash"); got != v2Key {
		t.Errorf("key = %s, want %s", got, v2Key)
	}
	if got := col.Counter("synth.runs"); got != 1 {
		t.Errorf("synth.runs = %d, want 1", got)
	}
	if _, err := os.Stat(filepath.Join(dir, fileName(v2Key))); err != nil {
		t.Errorf("v2 entry not written: %v", err)
	}
	if after, err := os.ReadFile(v1Path); err != nil || !bytes.Equal(after, v1Raw) {
		t.Errorf("stale v1 entry changed or removed (err %v)", err)
	}
}

// TestDiskStoreGetRevalidates pins read-time verification: an entry that
// rots after the startup scan reads as a miss (counted as corruption), so
// the worst failure mode is a redundant synthesis, never bad bytes.
func TestDiskStoreGetRevalidates(t *testing.T) {
	dir := t.TempDir()
	cfg := quickConfig()
	cfg.CacheSize = -1 // no memory layer: every lookup goes to disk
	cfg.WarmThreshold = -1
	cfg.DataDir = dir
	srv := newTestServer(t, cfg)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const body = `{"benchmark":"CG","procs":16}`
	postDesign(t, ts.URL, body)
	des, _ := os.ReadDir(dir)
	if len(des) != 1 {
		t.Fatalf("%d entry files, want 1", len(des))
	}
	path := filepath.Join(dir, des[0].Name())
	raw, _ := os.ReadFile(path)
	// Flip the body checksum's first hex digit so the file parses but fails
	// verification.
	rotted := bytes.Replace(raw, []byte(`"body_sha256":"`), []byte(`"body_sha256":"0`), 1)
	if err := os.WriteFile(path, rotted[:len(rotted)-1], 0o644); err != nil {
		t.Fatal(err)
	}

	resp, _ := postDesign(t, ts.URL, body)
	if got := resp.Header.Get("X-Nocd-Cache"); got != "miss" {
		t.Errorf("rotted entry served: cache header = %q, want miss", got)
	}
	if got := srv.Metrics().Counter("serve.store_disk_corrupt"); got == 0 {
		t.Error("serve.store_disk_corrupt = 0, want > 0")
	}
}

// TestDiskStoreFileNames pins the key→filename mapping: canonical keys map
// to v2-<hex>, anything else — a v1 "sha256:" key included — is re-hashed so
// it cannot escape the directory, collide with temp names, or land on the
// bare-<hex> name a v1 entry has.
func TestDiskStoreFileNames(t *testing.T) {
	hex64 := strings.Repeat("ab", 32)
	if got := fileName("sha256v2:" + hex64); got != "v2-"+hex64+storeSuffix {
		t.Errorf("canonical key filename = %q", got)
	}
	if got := fileName("sha256:" + hex64); got == hex64+storeSuffix {
		t.Errorf("v1 key filename = %q, want it apart from v1 entry names", got)
	}
	for _, k := range []string{"../../etc/passwd", "sha256v2:NOTHEX", "sha256v2:" + strings.Repeat("A", 64), "tmp-evil"} {
		got := fileName(k)
		if strings.ContainsAny(got, "/\\") || strings.HasPrefix(got, storeTempPrefix) || !strings.HasSuffix(got, storeSuffix) {
			t.Errorf("fileName(%q) = %q escapes or collides", k, got)
		}
	}
}

// TestDiskStoreUnusableDir pins that New fails loudly when the data dir
// cannot be created, rather than silently serving without durability.
func TestDiskStoreUnusableDir(t *testing.T) {
	file := filepath.Join(t.TempDir(), "plain-file")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := quickConfig()
	cfg.DataDir = filepath.Join(file, "sub") // parent is a file: MkdirAll fails
	if _, err := New(cfg); err == nil {
		t.Fatal("New succeeded with an unusable data dir")
	}
}
