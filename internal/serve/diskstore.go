package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/obs"
	"repro/internal/trace"
)

// Disk-store file format identifiers. storeVersion is bumped on any layout
// change; files from other versions are skipped as corrupt rather than
// misread.
const (
	storeSchema     = "nocd.design-store"
	storeVersion    = 1
	storeSuffix     = ".json"
	storeTempPrefix = "tmp-"
)

// storeFile is the on-disk representation of one Entry: a self-describing
// JSON document carrying the key, the exact response bytes (base64 via
// encoding/json), the warm disposition, the trace fingerprint for warm-index
// rebuild, and a body checksum so truncation or bit rot reads as corruption,
// never as a plausible design.
type storeFile struct {
	Schema      string             `json:"schema"`
	Version     int                `json:"version"`
	Key         string             `json:"key"`
	Warm        string             `json:"warm,omitempty"`
	Fingerprint *trace.Fingerprint `json:"fingerprint,omitempty"`
	BodySHA256  string             `json:"body_sha256"`
	Body        []byte             `json:"body"`
}

// diskStore is the persistent content-addressed backend: one file per key
// under dir, written atomically (temp + fsync + rename + directory fsync) so
// a crash at any instant leaves either the complete previous state or the
// complete new state — never a readable partial entry. The store is
// unbounded and never evicts; it is the durable layer behind the memory LRU,
// which is why designs survive restarts and why memory evictions do not
// invalidate the warm-start index when a disk store is present.
type diskStore struct {
	dir string
	col *obs.Collector

	mu   sync.Mutex
	keys map[string]struct{}
}

// openDiskStore opens (creating if needed) the store rooted at dir and scans
// it: every valid entry file is loaded and returned so the caller can
// rebuild secondary indexes (the warm-start fingerprint index); stray temp
// files and truncated, mis-keyed, checksum-failing, or otherwise unreadable
// files are skipped and counted on serve.store_disk_corrupt. Intact entries
// stored under another key scheme (a v1 "sha256:" key from an older server)
// are stale: they are counted on serve.store_disk_stale, left on disk
// untouched, and neither served nor indexed, since no current request keys
// to them. The scan order is the directory's sorted filename order, so
// index rebuilds are deterministic for a given directory state.
func openDiskStore(dir string, col *obs.Collector) (*diskStore, []*Entry, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("serve: creating data dir: %w", err)
	}
	d := &diskStore{dir: dir, col: col, keys: make(map[string]struct{})}
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: scanning data dir: %w", err)
	}
	var entries []*Entry
	for _, de := range des {
		if de.IsDir() {
			continue
		}
		name := de.Name()
		if strings.HasPrefix(name, storeTempPrefix) || !strings.HasSuffix(name, storeSuffix) {
			// A stray temp file is the footprint of a crash between
			// temp-write and rename: the rename never happened, so the
			// entry never existed. Skip it — never read it as data.
			obs.Count(col, "serve.store_disk_corrupt", 1)
			continue
		}
		ent, err := d.load(filepath.Join(dir, name))
		if errors.Is(err, errStaleKey) {
			obs.Count(col, "serve.store_disk_stale", 1)
			continue
		}
		if err != nil {
			obs.Count(col, "serve.store_disk_corrupt", 1)
			continue
		}
		d.keys[ent.Key] = struct{}{}
		entries = append(entries, ent)
		obs.Count(col, "serve.store_disk_scanned", 1)
	}
	return d, entries, nil
}

// fileName maps a content key to its file name: v2-<hex> for the canonical
// sha256v2:<hex> form, or (defensively) a hash of the key string for
// anything else, so no key can escape dir or collide with a temp name. The
// v2- prefix keeps current entries apart from the bare-<hex> files of v1
// keys that an older server may have left in the directory.
func fileName(key string) string {
	if h, ok := strings.CutPrefix(key, keyPrefix); ok && len(h) == 64 && isLowerHex(h) {
		return "v2-" + h + storeSuffix
	}
	return fmt.Sprintf("k%016x%s", hash64(key), storeSuffix)
}

func isLowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func (d *diskStore) path(key string) string { return filepath.Join(d.dir, fileName(key)) }

// errStaleKey marks an entry file whose stored key belongs to another key
// scheme than Key's.
var errStaleKey = errors.New("stored under a stale key scheme")

// load reads and verifies one entry file. Any mismatch — schema, version,
// key scheme, key↔filename binding, body checksum — is an error; the caller
// counts a stale key scheme as stale and anything else as corruption, and
// skips the file.
func (d *diskStore) load(path string) (*Entry, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sf storeFile
	if err := json.Unmarshal(b, &sf); err != nil {
		return nil, err
	}
	if sf.Schema != storeSchema || sf.Version != storeVersion {
		return nil, fmt.Errorf("serve: %s: unknown store schema %q v%d", path, sf.Schema, sf.Version)
	}
	if !strings.HasPrefix(sf.Key, keyPrefix) {
		return nil, fmt.Errorf("serve: %s: key %q: %w", path, sf.Key, errStaleKey)
	}
	if filepath.Base(path) != fileName(sf.Key) {
		return nil, fmt.Errorf("serve: %s: key %q does not match filename", path, sf.Key)
	}
	if len(sf.Body) == 0 {
		return nil, fmt.Errorf("serve: %s: empty body", path)
	}
	if sum := sha256.Sum256(sf.Body); hex.EncodeToString(sum[:]) != sf.BodySHA256 {
		return nil, fmt.Errorf("serve: %s: body checksum mismatch", path)
	}
	return &Entry{Key: sf.Key, Body: sf.Body, Warm: sf.Warm, Fp: sf.Fingerprint}, nil
}

// Get returns the entry for key, re-reading and re-verifying its file. A
// file that has rotted since the scan counts as corruption and reads as a
// miss, so the worst failure mode is a redundant synthesis.
func (d *diskStore) Get(key string) (*Entry, bool) {
	d.mu.Lock()
	_, ok := d.keys[key]
	d.mu.Unlock()
	if !ok {
		return nil, false
	}
	ent, err := d.load(d.path(key))
	if err != nil {
		obs.Count(d.col, "serve.store_disk_corrupt", 1)
		d.mu.Lock()
		delete(d.keys, key)
		d.mu.Unlock()
		return nil, false
	}
	return ent, true
}

// Put persists an entry atomically: marshal, write to a temp file in the
// same directory, fsync it, rename over the final name, and fsync the
// directory so the rename itself is durable. A crash before the rename
// leaves only a temp file the startup scan skips; a crash after it leaves
// the complete entry. Never evicts; write failures count on
// serve.store_disk_error and report stored=false.
func (d *diskStore) Put(e *Entry) (evicted []string, stored bool) {
	sum := sha256.Sum256(e.Body)
	buf, err := json.Marshal(storeFile{
		Schema:      storeSchema,
		Version:     storeVersion,
		Key:         e.Key,
		Warm:        e.Warm,
		Fingerprint: e.Fp,
		BodySHA256:  hex.EncodeToString(sum[:]),
		Body:        e.Body,
	})
	if err == nil {
		err = d.writeAtomic(d.path(e.Key), buf)
	}
	if err != nil {
		obs.Count(d.col, "serve.store_disk_error", 1)
		return nil, false
	}
	d.mu.Lock()
	d.keys[e.Key] = struct{}{}
	d.mu.Unlock()
	return nil, true
}

func (d *diskStore) writeAtomic(path string, buf []byte) error {
	f, err := os.CreateTemp(d.dir, storeTempPrefix+"*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err = f.Write(buf); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	// Durability of the rename needs the directory entry flushed too.
	if dir, derr := os.Open(d.dir); derr == nil {
		dir.Sync()
		dir.Close()
	}
	return nil
}

// Len reports the number of valid entries known to the store.
func (d *diskStore) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.keys)
}
