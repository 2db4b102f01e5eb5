package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sync"
)

// manifestName is the per-entry integrity record: artifact name →
// SHA-256 of its bytes, written alongside the artifacts. The leading
// dot fails ValidArtifactName, so the manifest is invisible to artifact
// listing and HTTP fetches.
const manifestName = ".manifest"

// artifactName constrains artifact file names so a disk-backed cache
// entry can never escape its directory. Every producer in exec.go uses
// names from this set shape; the HTTP layer re-validates on fetch.
var artifactName = regexp.MustCompile(`^[a-zA-Z0-9][a-zA-Z0-9._-]*$`)

// ValidArtifactName reports whether name is a safe artifact file name.
func ValidArtifactName(name string) bool {
	return len(name) <= 128 && artifactName.MatchString(name) && filepath.Base(name) == name
}

// Cache is the content-addressed result store: canonical request key →
// artifact set. Entries are immutable once stored (the key binds the
// full simulation input and the code's result epoch, and simulation is
// deterministic), so there is no invalidation — only insertion and
// lookup. An optional disk directory persists entries across daemon
// restarts; the in-memory map fronts it.
type Cache struct {
	mu    sync.Mutex
	mem   map[string]Artifacts
	dir   string                 // "" = memory only
	loads map[string]*loadFlight // per-key in-flight disk loads

	// loadDelay, when non-nil, runs at the start of every disk load.
	// Test seam: lets cache_test.go hold a load open and verify that
	// disk I/O never blocks unrelated lookups (loads happen outside mu).
	loadDelay func(key string)

	// noSync skips the Put fsyncs (files, entry dir, parent dir). Test
	// seam only: unit tests that do not assert crash durability keep the
	// happy path fast; production code leaves it false.
	noSync bool
}

// loadFlight is one in-flight disk load; done is closed when art/ok
// are final.
type loadFlight struct {
	done chan struct{}
	art  Artifacts
	ok   bool
}

// NewCache builds a cache; dir == "" keeps it memory-only.
func NewCache(dir string) (*Cache, error) {
	c := &Cache{mem: make(map[string]Artifacts), loads: make(map[string]*loadFlight), dir: dir}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("serve: cache dir: %w", err)
		}
	}
	return c, nil
}

// Get returns the artifact set stored under key, falling back to the
// disk layer; counting hits and misses is the caller's business. Disk
// reads run OUTSIDE the cache mutex — a slow disk must never stall
// in-memory lookups of other keys — with per-key single-flight so a
// thundering herd on one cold key does one read, not one per caller.
func (c *Cache) Get(key string) (Artifacts, bool) {
	c.mu.Lock()
	if art, ok := c.mem[key]; ok || c.dir == "" {
		c.mu.Unlock()
		return art, ok
	}
	if f := c.loads[key]; f != nil {
		c.mu.Unlock()
		<-f.done
		return f.art, f.ok
	}
	f := &loadFlight{done: make(chan struct{})}
	c.loads[key] = f
	c.mu.Unlock()
	f.art, f.ok = c.load(key)
	c.mu.Lock()
	delete(c.loads, key)
	if f.ok {
		// A concurrent Put may have stored the entry while we read the
		// disk; entries are immutable per key, so either copy is right —
		// keep the first one in.
		if cur, ok := c.mem[key]; ok {
			f.art = cur
		} else {
			c.mem[key] = f.art
		}
	}
	close(f.done)
	c.mu.Unlock()
	return f.art, f.ok
}

// Put stores an artifact set under key. Disk persistence is
// crash-safe write-through: entry files (plus a SHA-256 manifest) land
// in a temp directory, every file and the directory itself are fsync'd,
// the directory is renamed into place, and the parent directory is
// fsync'd — so a crashed daemon never leaves a partial or silently torn
// entry where Get could find it.
func (c *Cache) Put(key string, art Artifacts) error {
	c.mu.Lock()
	c.mem[key] = art
	dir := c.dir
	c.mu.Unlock()
	if dir == "" {
		return nil
	}
	final := filepath.Join(dir, key)
	if st, err := os.Stat(final); err == nil && st.IsDir() {
		return nil // immutable: first writer wins
	}
	tmp, err := os.MkdirTemp(dir, ".tmp-"+key[:8]+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	for name, data := range art {
		if !ValidArtifactName(name) {
			return fmt.Errorf("serve: invalid artifact name %q", name)
		}
		if err := c.writeFileSync(filepath.Join(tmp, name), data); err != nil {
			return err
		}
	}
	if err := c.writeFileSync(filepath.Join(tmp, manifestName), manifestBytes(art)); err != nil {
		return err
	}
	if err := c.syncDir(tmp); err != nil {
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		// A concurrent writer won the rename; its content is identical by
		// construction (same key, deterministic artifacts).
		if st, statErr := os.Stat(final); statErr == nil && st.IsDir() {
			return nil
		}
		return err
	}
	return c.syncDir(dir)
}

// writeFileSync writes data and fsyncs before closing, so the bytes —
// not just the directory entry — survive a crash after Put returns.
func (c *Cache) writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if !c.noSync {
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// syncDir fsyncs a directory so renames and file creations inside it
// are durable.
func (c *Cache) syncDir(path string) error {
	if c.noSync {
		return nil
	}
	d, err := os.Open(path)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// manifestBytes renders the entry manifest: sorted artifact names with
// hex SHA-256 digests, one JSON object.
func manifestBytes(art Artifacts) []byte {
	sums := make(map[string]string, len(art))
	for name, data := range art {
		sums[name] = digest(data)
	}
	b, _ := json.MarshalIndent(sums, "", "  ") // map keys marshal sorted
	return append(b, '\n')
}

func digest(data []byte) string {
	h := sha256.Sum256(data)
	return hex.EncodeToString(h[:])
}

// load reads a disk entry. Called WITHOUT c.mu (disk entries are
// immutable once renamed into place, so lock-free reads are safe). Put
// writes exactly the files its manifest lists, so anything else — no
// manifest, an unreadable one, a truncated, bit-flipped, missing or
// unlisted artifact — is corruption: the lookup is a miss, never a
// panic and never unverified bytes served to a client, and the entry is
// evicted so the next Put (a re-simulation) can land a good copy.
func (c *Cache) load(key string) (Artifacts, bool) {
	if c.loadDelay != nil {
		c.loadDelay(key)
	}
	dir := filepath.Join(c.dir, key)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, false // no entry
	}
	art, ok := readEntry(dir, len(entries))
	if !ok {
		os.RemoveAll(dir)
	}
	return art, ok
}

// readEntry reads the n-file entry in dir: its manifest and exactly the
// artifacts it lists, each with its listed SHA-256.
func readEntry(dir string, n int) (Artifacts, bool) {
	mb, err := os.ReadFile(filepath.Join(dir, manifestName))
	var sums map[string]string
	if err != nil || json.Unmarshal(mb, &sums) != nil || len(sums) == 0 || len(sums)+1 != n {
		return nil, false
	}
	art := make(Artifacts, len(sums))
	for name, want := range sums {
		if !ValidArtifactName(name) {
			return nil, false
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil || digest(data) != want {
			return nil, false
		}
		art[name] = data
	}
	return art, true
}

// Len returns the number of entries in the memory layer.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.mem)
}
