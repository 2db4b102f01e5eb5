package serve

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sync"

	"misp/internal/durable"
	"misp/internal/snap/wire"
)

// artifactName constrains artifact names to plain file names, safe to
// save under and to put in a URL path. Every producer in exec.go uses
// names from this set shape, and a cache entry, in memory or on disk,
// refuses any other: the HTTP layer serves only names the cache holds.
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
func (c *Cache) Get(key string) (Artifacts, bool) { return c.get(key, true) }

// get is Get, falling back to the disk layer only when disk is set.
func (c *Cache) get(key string, disk bool) (Artifacts, bool) {
	c.mu.Lock()
	if art, ok := c.mem[key]; ok || c.dir == "" || !disk {
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
// crash-safe write-through: the entry is encoded as one file (see
// encodeEntry) and lands through durable.WriteFile, so a crashed daemon
// never leaves a partial or silently torn entry where Get could find
// it. A key already in the memory layer is not written again: entries
// are immutable, so the first Put (or the disk load that found the
// entry) wins, and two Puts of one key never share a temp file. A set
// carrying a name ValidArtifactName refuses is not stored at all.
func (c *Cache) Put(key string, art Artifacts) error {
	for name := range art {
		if !ValidArtifactName(name) {
			return fmt.Errorf("serve: invalid artifact name %q", name)
		}
	}
	c.mu.Lock()
	_, had := c.mem[key]
	if !had {
		c.mem[key] = art
	}
	dir := c.dir
	c.mu.Unlock()
	if dir == "" || had {
		return nil
	}
	buf, err := encodeEntry(art)
	if err != nil {
		return err
	}
	return durable.WriteFile(filepath.Join(dir, key), buf)
}

// entryMagic identifies a cache entry file; the SHA-256 of the body
// follows it.
const entryMagic = "MISPCAC1"

// entryHeader is the byte length of the magic and the body digest.
const entryHeader = len(entryMagic) + sha256.Size

// encodeEntry renders art as one entry file: entryMagic, the SHA-256
// of the body, then the body — the artifacts as (name, blob) pairs in
// ascending name order (codeArtifacts).
func encodeEntry(art Artifacts) ([]byte, error) {
	size := entryHeader + 8
	for name, data := range art {
		size += 16 + len(name) + len(data)
	}
	c := wire.NewEncoder(size)
	c.Raw(make([]byte, entryHeader)) // filled in once the body is known
	codeArtifacts(c, art)
	if err := c.Err(); err != nil {
		return nil, err
	}
	buf := c.Bytes()
	sum := sha256.Sum256(buf[entryHeader:])
	copy(buf, entryMagic)
	copy(buf[len(entryMagic):], sum[:])
	return buf, nil
}

// decodeEntry is encodeEntry's inverse, or nil for anything encodeEntry
// cannot have written: a bad magic or digest, a short or overlong body,
// no artifacts, or a name that is invalid or out of order.
func decodeEntry(buf []byte) Artifacts {
	if len(buf) < entryHeader || string(buf[:len(entryMagic)]) != entryMagic {
		return nil
	}
	if sum := sha256.Sum256(buf[entryHeader:]); !bytes.Equal(sum[:], buf[len(entryMagic):entryHeader]) {
		return nil
	}
	c := wire.NewDecoder(buf[entryHeader:])
	art := make(Artifacts)
	codeArtifacts(c, art)
	if c.Err() != nil || c.Remaining() != 0 || len(art) == 0 {
		return nil
	}
	return art
}

// codeArtifacts states the entry body once for both directions: a
// count, then each artifact's name and bytes, names strictly ascending.
// Every name must pass ValidArtifactName, so no entry can carry a name
// the HTTP layer would refuse to serve.
func codeArtifacts(c *wire.Codec, art Artifacts) {
	prev := ""
	wire.Map(c, art, c.String, func(name string) {
		if !ValidArtifactName(name) || name <= prev {
			c.Fail(fmt.Errorf("serve: invalid or unordered artifact name %q", name))
			return
		}
		prev = name
		data := art[name]
		c.Blob(&data)
		if c.Decoding() {
			art[name] = data
		}
	})
}

// load reads a disk entry. Called WITHOUT c.mu (disk entries are
// immutable once renamed into place, so lock-free reads are safe).
// Anything decodeEntry rejects — a truncated, bit-flipped or extended
// file, or a directory an older daemon left at the key — is corruption:
// the lookup is a miss, never a panic and never unverified bytes served
// to a client, and the entry is evicted so the next Put (a
// re-simulation) can land a good copy.
func (c *Cache) load(key string) (Artifacts, bool) {
	if c.loadDelay != nil {
		c.loadDelay(key)
	}
	path := filepath.Join(c.dir, key)
	buf, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, false // no entry
	}
	art := decodeEntry(buf)
	if err != nil || art == nil {
		os.RemoveAll(path)
		return nil, false
	}
	return art, true
}

// Len returns the number of entries in the memory layer.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.mem)
}
