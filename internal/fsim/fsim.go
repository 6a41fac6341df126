package fsim

import (
	"fmt"
	"hash/fnv"

	"cxlfork/internal/cxl"
	"cxlfork/internal/memsim"
)

// FS is the shared root filesystem. One instance is shared by all nodes
// in a cluster; paths resolve identically everywhere.
type FS struct {
	files map[string]*File
}

// NewFS returns an empty filesystem.
func NewFS() *FS { return &FS{files: make(map[string]*File)} }

// File is an immutable file on the shared root filesystem (binaries,
// libraries, model weights).
type File struct {
	Path string
	Size int64
}

// Create registers a file. Re-creating a path replaces it.
func (fs *FS) Create(path string, size int64) *File {
	f := &File{Path: path, Size: size}
	fs.files[path] = f
	return f
}

// Lookup resolves a path, or returns an error (the file must exist on
// the restoring node for global-state restore to succeed).
func (fs *FS) Lookup(path string) (*File, error) {
	f, ok := fs.files[path]
	if !ok {
		return nil, fmt.Errorf("fsim: no such file %q", path)
	}
	return f, nil
}

// PageToken returns the deterministic content token of page idx of the
// file. Identical across nodes — the content is the same file.
func (f *File) PageToken(idx int) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(f.Path))
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(idx >> (8 * i))
	}
	_, _ = h.Write(b[:])
	t := h.Sum64()
	if t == 0 {
		t = 1
	}
	return t
}

// PageCache is one node's file page cache. Cached file pages occupy
// local DRAM frames; the cache holds one reference per frame and mapped
// processes hold additional references.
type PageCache struct {
	pool    *memsim.Pool
	entries map[pcKey]*memsim.Frame

	Hits   int64
	Misses int64
}

type pcKey struct {
	path string
	idx  int
}

// NewPageCache returns a page cache backed by the node pool.
func NewPageCache(pool *memsim.Pool) *PageCache {
	return &PageCache{pool: pool, entries: make(map[pcKey]*memsim.Frame)}
}

// Pages returns the number of cached file pages.
func (pc *PageCache) Pages() int { return len(pc.entries) }

// Get returns the cached frame for (file, idx) and whether it was
// already resident. On a miss the page is read from backing storage into
// a newly allocated frame. The returned frame's reference belongs to the
// cache; callers mapping it must Get their own.
func (pc *PageCache) Get(f *File, idx int) (*memsim.Frame, bool, error) {
	k := pcKey{f.Path, idx}
	if fr, ok := pc.entries[k]; ok {
		pc.Hits++
		return fr, true, nil
	}
	pc.Misses++
	fr, err := pc.pool.Alloc()
	if err != nil {
		return nil, false, err
	}
	fr.Data = f.PageToken(idx)
	pc.entries[k] = fr
	return fr, false, nil
}

// CXLFS is the in-CXL-memory filesystem shared between nodes, used to
// hold CRIU image files. Each file is one blob charged against the CXL
// device through its own arena, so files are individually removable
// (checkpoint reclaim).
type CXLFS struct {
	dev   *cxl.Device
	files map[string]cxlFile
	seq   int
}

type cxlFile struct {
	arena *cxl.Arena
	off   cxl.Offset
	size  int64
}

// NewCXLFS mounts a cxlfs instance on the device.
func NewCXLFS(dev *cxl.Device) *CXLFS {
	return &CXLFS{dev: dev, files: make(map[string]cxlFile)}
}

// Write stores blob under name, charging logicalSize bytes against the
// device. The logical size is the image's on-medium size (CRIU page
// records carry whole pages, which the simulation represents compactly
// as content tokens); it must be at least len(blob). cxlfs files are
// write-once (CRIU image semantics).
func (c *CXLFS) Write(name string, blob []byte, logicalSize int64) error {
	if _, ok := c.files[name]; ok {
		return fmt.Errorf("cxlfs: %q already exists", name)
	}
	if logicalSize < int64(len(blob)) {
		logicalSize = int64(len(blob))
	}
	c.seq++
	arena, err := c.dev.NewArena(fmt.Sprintf("cxlfs:%s#%d", name, c.seq))
	if err != nil {
		return err
	}
	off, err := arena.Alloc(blob, logicalSize)
	if err != nil {
		arena.Release()
		return err
	}
	c.dev.WriteBytes += logicalSize
	c.files[name] = cxlFile{arena: arena, off: off, size: logicalSize}
	return nil
}

// Read returns the blob stored under name. Reads are shared-memory
// accesses: no copy is made, but fabric read traffic is accounted.
func (c *CXLFS) Read(name string) ([]byte, error) {
	f, ok := c.files[name]
	if !ok {
		return nil, fmt.Errorf("cxlfs: no such file %q", name)
	}
	c.dev.ReadBytes += f.size
	return cxl.Get[[]byte](f.arena, f.off), nil
}

// Remove deletes a file, releasing its device capacity.
func (c *CXLFS) Remove(name string) bool {
	f, ok := c.files[name]
	if !ok {
		return false
	}
	f.arena.Release()
	delete(c.files, name)
	return true
}

// Files returns the number of stored files.
func (c *CXLFS) Files() int { return len(c.files) }
