package main

import (
	"path"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"extscc"
)

// countingStorage wraps an extscc.Storage and measures it from outside the
// engine: it counts and times every block read and write, counts created
// files, and tracks the bytes held by the files created through it, so the
// peak temporary space of a run is known.  When tr is set, every read and
// write is also recorded as a span, parented to the tracer's current span.
type countingStorage struct {
	inner extscc.Storage
	tr    *tracer

	readCalls, readBytes, readNS    atomic.Int64
	writeCalls, writeBytes, writeNS atomic.Int64
	filesCreated                    atomic.Int64

	mu    sync.Mutex
	sizes map[string]int64 // size of every live file created through the wrapper
	live  int64
	peak  int64
}

func newCountingStorage(inner extscc.Storage, tr *tracer) *countingStorage {
	return &countingStorage{inner: inner, tr: tr, sizes: map[string]int64{}}
}

// storageCounters is a point-in-time copy of the wrapper's counters.
type storageCounters struct {
	ReadCalls, ReadBytes, WriteCalls, WriteBytes, FilesCreated int64
	ReadS, WriteS                                              float64
	LiveBytes, PeakLiveBytes                                   int64
}

func (s *countingStorage) counters() storageCounters {
	s.mu.Lock()
	live, peak := s.live, s.peak
	s.mu.Unlock()
	return storageCounters{
		ReadCalls:     s.readCalls.Load(),
		ReadBytes:     s.readBytes.Load(),
		ReadS:         time.Duration(s.readNS.Load()).Seconds(),
		WriteCalls:    s.writeCalls.Load(),
		WriteBytes:    s.writeBytes.Load(),
		WriteS:        time.Duration(s.writeNS.Load()).Seconds(),
		FilesCreated:  s.filesCreated.Load(),
		LiveBytes:     live,
		PeakLiveBytes: peak,
	}
}

// sub returns the counter deltas c - base; the live and peak byte figures
// are kept from c.
func (c storageCounters) sub(base storageCounters) storageCounters {
	c.ReadCalls -= base.ReadCalls
	c.ReadBytes -= base.ReadBytes
	c.ReadS -= base.ReadS
	c.WriteCalls -= base.WriteCalls
	c.WriteBytes -= base.WriteBytes
	c.WriteS -= base.WriteS
	c.FilesCreated -= base.FilesCreated
	return c
}

// resetPeak restarts peak tracking from the current live bytes, so a later
// counters call reports the peak of the section that follows.
func (s *countingStorage) resetPeak() {
	s.mu.Lock()
	s.peak = s.live
	s.mu.Unlock()
}

// resize sets a live file's size to size(old).  Files the wrapper did not
// create (the staged input, opened read-only) are not tracked.
func (s *countingStorage) resize(key string, size func(old int64) int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	old, ok := s.sizes[key]
	if !ok {
		return
	}
	n := size(old)
	s.sizes[key] = n
	s.live += n - old
	if s.live > s.peak {
		s.peak = s.live
	}
}

func (s *countingStorage) forget(p string) {
	s.mu.Lock()
	s.live -= s.sizes[p]
	delete(s.sizes, p)
	s.mu.Unlock()
}

func (s *countingStorage) Name() string { return s.inner.Name() }

func (s *countingStorage) Create(p string) (extscc.StorageFile, error) {
	f, err := s.inner.Create(p)
	if err != nil {
		return nil, err
	}
	s.filesCreated.Add(1)
	key := path.Clean(p)
	s.mu.Lock()
	s.live -= s.sizes[key] // Create truncates an existing file
	s.sizes[key] = 0
	s.mu.Unlock()
	return &countingFile{StorageFile: f, s: s, key: key}, nil
}

func (s *countingStorage) Open(p string) (extscc.StorageFile, error) {
	f, err := s.inner.Open(p)
	if err != nil {
		return nil, err
	}
	return &countingFile{StorageFile: f, s: s, key: path.Clean(p)}, nil
}

func (s *countingStorage) Remove(p string) error {
	err := s.inner.Remove(p)
	if err == nil {
		s.forget(path.Clean(p))
	}
	return err
}

func (s *countingStorage) Rename(oldPath, newPath string) error {
	if err := s.inner.Rename(oldPath, newPath); err != nil {
		return err
	}
	oldKey, newKey := path.Clean(oldPath), path.Clean(newPath)
	s.mu.Lock()
	if size, ok := s.sizes[oldKey]; ok {
		delete(s.sizes, oldKey)
		s.live -= s.sizes[newKey]
		s.sizes[newKey] = size
	}
	s.mu.Unlock()
	return nil
}

func (s *countingStorage) MkdirTemp(parent, pattern string) (string, error) {
	return s.inner.MkdirTemp(parent, pattern)
}

func (s *countingStorage) RemoveAll(p string) error {
	err := s.inner.RemoveAll(p)
	key := path.Clean(p)
	prefix := key + "/"
	s.mu.Lock()
	for k, size := range s.sizes {
		if k == key || strings.HasPrefix(k, prefix) {
			s.live -= size
			delete(s.sizes, k)
		}
	}
	s.mu.Unlock()
	return err
}

func (s *countingStorage) List(dir string) ([]string, error) { return s.inner.List(dir) }
func (s *countingStorage) TempPath() string                  { return s.inner.TempPath() }

// countingFile is a file handle of countingStorage.
type countingFile struct {
	extscc.StorageFile
	s   *countingStorage
	key string
}

func (f *countingFile) ReadAt(p []byte, off int64) (int, error) {
	start := time.Now()
	n, err := f.StorageFile.ReadAt(p, off)
	f.s.readNS.Add(int64(f.s.tr.storageSpan("storage.read", start)))
	f.s.readCalls.Add(1)
	f.s.readBytes.Add(int64(n))
	return n, err
}

func (f *countingFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.StorageFile.Write(p)
	f.s.writeNS.Add(int64(f.s.tr.storageSpan("storage.write", start)))
	f.s.writeCalls.Add(1)
	f.s.writeBytes.Add(int64(n))
	f.s.resize(f.key, func(old int64) int64 { return old + int64(n) })
	return n, err
}

func (f *countingFile) WriteAt(p []byte, off int64) (int, error) {
	start := time.Now()
	n, err := f.StorageFile.WriteAt(p, off)
	f.s.writeNS.Add(int64(f.s.tr.storageSpan("storage.write", start)))
	f.s.writeCalls.Add(1)
	f.s.writeBytes.Add(int64(n))
	f.s.resize(f.key, func(old int64) int64 { return max(old, off+int64(n)) })
	return n, err
}

func (f *countingFile) Truncate(size int64) error {
	if err := f.StorageFile.Truncate(size); err != nil {
		return err
	}
	f.s.resize(f.key, func(int64) int64 { return size })
	return nil
}
