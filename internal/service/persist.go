package service

// Durable tier wiring (DESIGN §17): when the daemon starts with a store
// directory, every registry mutation is written through to disk before it
// is acknowledged, finished mining results are snapshotted on write, and
// restart restores both — lineages resume at their recorded version and
// prior results are served as cache hits without re-mining. Persisting
// results is sound for the same reason the in-memory cache is: mining is
// byte-identical per (dataset content hash, canonical options key), see
// DESIGN §8.3.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"sort"
	"time"

	"github.com/probdata/pfcim/internal/core"
	"github.com/probdata/pfcim/internal/store"
	"github.com/probdata/pfcim/internal/uncertain"
)

// persister owns the daemon's store handle plus the observability around
// it. Methods are safe for concurrent use (the store serializes internally).
type persister struct {
	st  *store.Store
	log *slog.Logger
	mtr *metrics
}

// lineageRecord is the on-disk form of one version chain. The record is the
// commit point of registration and append: a dataset segment not referenced
// by any record is invisible to restore, so the two-step write (dataset
// first, record second) is all-or-nothing across a crash.
type lineageRecord struct {
	Root      string           `json:"root"`
	Immutable bool             `json:"immutable,omitempty"`
	Versions  []lineageVersion `json:"versions"`
}

type lineageVersion struct {
	ID           string    `json:"id"`
	RegisteredAt time.Time `json:"registered_at"`
}

// saveDataset writes one freshly registered version and its lineage's
// updated record. Called by the registry while it holds its write lock, so
// records never interleave out of order; the fsync cost rides on the
// (rare) registration path, never on job submission.
func (p *persister) saveDataset(d *Dataset, lin *lineage) error {
	var buf bytes.Buffer
	if err := uncertain.Write(&buf, d.db); err != nil {
		return fmt.Errorf("service: serialize dataset %s: %w", d.ID, err)
	}
	if err := p.st.PutDataset(d.ID, buf.Bytes()); err != nil {
		p.mtr.StoreErrors.Add(1)
		return err
	}
	p.mtr.StoreDatasetsPersisted.Add(1)
	rec := lineageRecord{Root: lin.root, Immutable: lin.immutable}
	for _, v := range lin.versions {
		rec.Versions = append(rec.Versions, lineageVersion{ID: v.ID, RegisteredAt: v.RegisteredAt})
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if err := p.st.PutLineage(lin.root, data); err != nil {
		p.mtr.StoreErrors.Add(1)
		return err
	}
	p.mtr.StoreLineagesPersisted.Add(1)
	return nil
}

// saveResult snapshots one finished result. The store keeps the result's
// compact json.Marshal bytes — the same bytes every earlier daemon wrote —
// and the first call renders them for every later reader. Failures degrade
// durability, not serving: the result is already in memory and correct, so
// they are logged and counted rather than failing the job.
func (p *persister) saveResult(key string, res *encoded[core.ResultJSON]) {
	data, err := res.compactBytes()
	if err == nil {
		err = p.st.PutResult(key, data)
	}
	if err != nil {
		p.mtr.StoreErrors.Add(1)
		p.log.Error("result snapshot failed", "error", err)
		return
	}
	p.mtr.StoreResultsPersisted.Add(1)
}

// loadResult is the cache's read-through: a result the LRU dropped (or a
// restarted process never had) is served from disk and promoted. The bytes
// are served as stored, without a decode: a syntax check is all that stands
// between them and a response, and bytes that fail it read as a miss so
// the job re-mines.
func (p *persister) loadResult(key string) (*encoded[core.ResultJSON], bool) {
	data, ok, err := p.st.GetResult(key)
	if err != nil {
		p.mtr.StoreErrors.Add(1)
		p.log.Error("stored result unreadable", "error", err)
		return nil, false
	}
	if !ok {
		return nil, false
	}
	if !json.Valid(data) {
		p.mtr.StoreErrors.Add(1)
		p.log.Error("stored result is not valid JSON", "key", key)
		return nil, false
	}
	p.mtr.StoreRestoredResults.Add(1)
	return encodedBytes[core.ResultJSON](data), true
}

// restore rebuilds the registry from the store's lineage records: every
// version is re-read, re-parsed, and re-hashed — a dataset whose content no
// longer matches its id is never served. A lineage restores as the longest
// intact prefix of its recorded versions (version N+1 embeds version N, so
// a damaged tail truncates the lineage rather than poisoning it); the
// daemon keeps serving either way.
func (r *Registry) restore(p *persister) (int, error) {
	records, err := p.st.Lineages()
	if err != nil {
		return 0, err
	}
	roots := make([]string, 0, len(records))
	for root := range records {
		roots = append(roots, root)
	}
	sort.Strings(roots)

	restored := 0
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, root := range roots {
		var rec lineageRecord
		if err := json.Unmarshal(records[root], &rec); err != nil {
			p.mtr.StoreErrors.Add(1)
			p.log.Error("lineage record undecodable; skipping", "lineage", root, "error", err)
			continue
		}
		lin := &lineage{root: rec.Root, immutable: rec.Immutable}
		for i, v := range rec.Versions {
			data, ok, err := p.st.GetDataset(v.ID)
			if err != nil || !ok {
				p.mtr.StoreErrors.Add(1)
				p.log.Error("recorded dataset version missing from store; truncating lineage",
					"lineage", root, "version", i+1, "dataset", v.ID, "error", err)
				break
			}
			db, err := uncertain.Read(bytes.NewReader(data))
			if err != nil {
				p.mtr.StoreErrors.Add(1)
				p.log.Error("stored dataset unparseable; truncating lineage",
					"lineage", root, "dataset", v.ID, "error", err)
				break
			}
			id, err := hashDB(db)
			if err != nil || id != v.ID {
				p.mtr.StoreErrors.Add(1)
				p.log.Error("stored dataset fails its content hash; truncating lineage",
					"lineage", root, "dataset", v.ID, "rehashed", id)
				break
			}
			d := &Dataset{
				ID:           v.ID,
				Lineage:      rec.Root,
				Version:      i + 1,
				Immutable:    rec.Immutable && i == 0, // mirror Register: the flag lives on the root
				Stats:        db.Stats(),
				RegisteredAt: v.RegisteredAt,
				db:           db,
			}
			r.byID[d.ID] = d
			lin.versions = append(lin.versions, d)
			restored++
		}
		if len(lin.versions) > 0 {
			r.lineages[lin.root] = lin
		}
	}
	p.mtr.StoreRestoredDatasets.Add(int64(restored))
	return restored, nil
}
