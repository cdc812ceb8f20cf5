package shard

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"gtpq/internal/atomicfile"
	"gtpq/internal/graph"
	"gtpq/internal/gtea"
	"gtpq/internal/snapshot"
)

// A sharded dataset on disk is a directory:
//
//	<dir>/manifest.json    versioned manifest with content hashes
//	<dir>/shard-0000.snap  per-shard graph + reachability index
//	<dir>/shard-0000.ids   per-shard local→global id mapping
//	<dir>/shard-0001.snap  ...
//
// The manifest is the integrity root: LoadDir refuses to build an
// engine unless every listed file exists with the recorded SHA-256,
// no unlisted shard file is present, and the shard id sets partition
// the global id range — a corrupted or partially-copied directory
// fails loudly instead of serving partial data. The manifest is the
// replication unit ROADMAP.md's horizontal-serving item calls for:
// ship the directory, verify the hashes, serve.

// ManifestName is the manifest file name inside a shard directory.
const ManifestName = "manifest.json"

// ManifestFormat identifies the manifest schema.
const ManifestFormat = "gtpq-shard"

// ManifestVersion is the current manifest schema version.
const ManifestVersion = 1

// idsMagic heads the .ids sidecar files (local→global id mapping).
const idsMagic = "GTPQIDS1"

// ShardFile describes one shard's files in the manifest.
type ShardFile struct {
	Snap       string `json:"snap"`
	SnapSHA256 string `json:"snap_sha256"`
	IDs        string `json:"ids"`
	IDsSHA256  string `json:"ids_sha256"`
	Nodes      int    `json:"nodes"`
	Edges      int    `json:"edges"`
}

// Manifest describes a sharded dataset directory. Mode is always
// ModeWCC and Replicated always 0 — every vertex lives in exactly one
// shard; both stay in the JSON so directories keep one format.
// Directories written before hash mode was retired may say "hash";
// ReadManifest rejects them.
type Manifest struct {
	Format     string      `json:"format"`
	Version    int         `json:"version"`
	Name       string      `json:"name"`
	Mode       Mode        `json:"mode"`
	Index      string      `json:"index"`
	TotalNodes int         `json:"total_nodes"`
	TotalEdges int         `json:"total_edges"`
	Replicated int         `json:"replicated"`
	Shards     []ShardFile `json:"shards"`
}

// WriteDir partitions nothing itself — it materializes a computed plan
// under dir: it builds the plan's engine (NewEngine) and saves it
// (Save). name is recorded in the manifest and must match the dataset
// name the catalog will serve it under.
func WriteDir(dir, name string, g *graph.Graph, plan *Plan, opt Options) (*Manifest, error) {
	se, err := NewEngine(g, plan, opt)
	if err != nil {
		return nil, err
	}
	return se.Save(dir, name)
}

// Save writes the engine as a shard directory under dir: per-shard
// snapshots of the graphs and indexes it already holds, id sidecars,
// and finally the manifest, written atomically last so a crashed run
// never leaves a directory that passes verification. Shards are written
// GOMAXPROCS at a time (normalizeWorkers), each file hashed as it is
// written; a shard's bytes depend only on that shard, so the directory
// is the same whatever the worker count. An error names the lowest failing shard.
func (se *ShardedEngine) Save(dir, name string) (*Manifest, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	man := &Manifest{
		Format:     ManifestFormat,
		Version:    ManifestVersion,
		Name:       name,
		Mode:       ModeWCC,
		Index:      se.kind,
		TotalNodes: se.totalNodes,
		TotalEdges: se.totalEdges,
		Shards:     make([]ShardFile, len(se.shards)),
	}
	err := forEachShard(len(se.shards), se.workers, func(i int) error {
		u := se.shards[i]
		sg := u.eng.G
		sf := ShardFile{
			Snap:  fmt.Sprintf("shard-%04d.snap", i),
			IDs:   fmt.Sprintf("shard-%04d.ids", i),
			Nodes: sg.N(), Edges: sg.M(),
		}
		ids := u.globals
		if ids == nil { // local ids are global ids
			ids = make([]graph.NodeID, sg.N())
			for v := range ids {
				ids[v] = graph.NodeID(v)
			}
		}
		var err error
		sf.SnapSHA256, err = writeHashed(filepath.Join(dir, sf.Snap), func(w io.Writer) error {
			return snapshot.Save(w, sg, u.eng.H)
		})
		if err == nil {
			sf.IDsSHA256, err = writeHashed(filepath.Join(dir, sf.IDs), func(w io.Writer) error {
				return writeIDs(w, ids)
			})
		}
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		man.Shards[i] = sf
		return nil
	})
	if err != nil {
		return nil, err
	}

	blob, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := atomicfile.WriteFile(filepath.Join(dir, ManifestName), append(blob, '\n')); err != nil {
		return nil, err
	}
	// A save over a directory that held more shards leaves their files
	// behind, and LoadDir refuses unlisted shard files. Only names this
	// function writes are removed: any other stray file still fails the
	// load.
	stale, err := unlistedFiles(dir, man)
	if err != nil {
		return nil, err
	}
	for _, n := range stale {
		if strings.HasPrefix(n, "shard-") {
			if err := os.Remove(filepath.Join(dir, n)); err != nil {
				return nil, err
			}
		}
	}
	return man, nil
}

// LoadDir verifies and loads a sharded dataset directory written by
// WriteDir, reviving every shard's index from its snapshot (no index
// construction). Any integrity violation — unparsable or
// wrong-version manifest, missing or unlisted shard file, content-hash
// mismatch, shard sizes disagreeing with the manifest, or an id
// mapping that is not an exact partition of the global id range — is
// an error; a damaged directory never yields a partially-working
// engine. Shards are read, verified and decoded GOMAXPROCS at a
// time, each with the checks in the same order (its bytes hashed before
// they are decoded), and an error names the lowest failing shard, as a
// shard-by-shard load would. Nothing is allocated from the manifest's
// size claims until the shard files have been verified and agree with
// them. A one-shard directory loads as Single would build it: its ids
// are verified to be the identity and then dropped. opt.Index is
// ignored.
func LoadDir(dir string, opt Options) (*ShardedEngine, *Manifest, error) {
	man, err := ReadManifest(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, nil, err
	}
	fail := func(format string, args ...interface{}) (*ShardedEngine, *Manifest, error) {
		return nil, nil, fmt.Errorf("shard: %s: %s", dir, fmt.Sprintf(format, args...))
	}

	// No shard-looking file may exist outside the manifest: an extra
	// .snap/.ids is evidence of a mangled copy or name corruption.
	stale, err := unlistedFiles(dir, man)
	if err != nil {
		return nil, nil, err
	}
	if len(stale) > 0 {
		return fail("unlisted shard file %q (manifest corruption or stray copy)", stale[0])
	}

	se := &ShardedEngine{
		kind:       man.Index,
		workers:    normalizeWorkers(len(man.Shards)),
		totalNodes: man.TotalNodes,
		totalEdges: man.TotalEdges,
		shards:     make([]*shardUnit, len(man.Shards)),
	}
	err = forEachShard(len(man.Shards), se.workers, func(i int) error {
		u, err := loadShard(dir, man, i, opt)
		se.shards[i] = u
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	nodeSum, edgeSum := 0, 0
	for _, u := range se.shards {
		nodeSum += u.eng.G.N()
		edgeSum += u.eng.G.M()
	}
	if nodeSum != man.TotalNodes {
		return fail("shards hold %d nodes, manifest says %d", nodeSum, man.TotalNodes)
	}
	if edgeSum != man.TotalEdges {
		return fail("shards hold %d edges, manifest says %d", edgeSum, man.TotalEdges)
	}
	// total_nodes is now backed by loaded data. Ids are in range and the
	// counts sum to the total, so no id in two shards means every id is
	// in exactly one.
	covered := make([]bool, man.TotalNodes)
	for i, u := range se.shards {
		for _, gv := range u.globals {
			if covered[gv] {
				return fail("shard %d: global id %d appears in two shards", i, gv)
			}
			covered[gv] = true
		}
	}
	if len(se.shards) == 1 {
		se.shards[0].globals = nil
	}
	return se, man, nil
}

// loadShard reads, verifies and decodes shard i of the directory dir
// that man describes, checking it against the manifest's claims for it.
func loadShard(dir string, man *Manifest, i int, opt Options) (*shardUnit, error) {
	sf := man.Shards[i]
	fail := func(format string, args ...interface{}) (*shardUnit, error) {
		return nil, fmt.Errorf("shard: %s: shard %d: %s", dir, i, fmt.Sprintf(format, args...))
	}
	// Each file is read once; the digest is taken over the exact bytes
	// that get parsed (no hash-then-reopen window).
	snapBlob, err := readVerified(filepath.Join(dir, sf.Snap), sf.SnapSHA256)
	if err != nil {
		return fail("%v", err)
	}
	idsBlob, err := readVerified(filepath.Join(dir, sf.IDs), sf.IDsSHA256)
	if err != nil {
		return fail("%v", err)
	}
	sg, h, err := snapshot.Decode(snapBlob)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", filepath.Join(dir, sf.Snap), err)
	}
	if sg.N() != sf.Nodes || sg.M() != sf.Edges {
		return fail("snapshot has %d nodes / %d edges, manifest says %d / %d",
			sg.N(), sg.M(), sf.Nodes, sf.Edges)
	}
	if h.Kind() != man.Index {
		return fail("index kind %q, manifest says %q", h.Kind(), man.Index)
	}
	globals, err := parseIDs(sf.IDs, idsBlob)
	if err != nil {
		return fail("%v", err)
	}
	if len(globals) != sg.N() {
		return fail("id mapping covers %d nodes, snapshot has %d", len(globals), sg.N())
	}
	if n := len(globals); n > 0 && int(globals[n-1]) >= man.TotalNodes {
		return fail("global id %d out of range (%d total nodes)", globals[n-1], man.TotalNodes)
	}
	return &shardUnit{eng: gtea.NewWithIndex(sg, h, gtea.Options{NoPlan: opt.NoPlan}), globals: globals}, nil
}

// unlistedFiles names the shard-looking files (.snap, .ids) in dir
// that man does not list.
func unlistedFiles(dir string, man *Manifest) ([]string, error) {
	listed := map[string]bool{}
	for _, sf := range man.Shards {
		listed[sf.Snap] = true
		listed[sf.IDs] = true
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, de := range des {
		n := de.Name()
		if (strings.HasSuffix(n, ".snap") || strings.HasSuffix(n, ".ids")) && !listed[n] {
			out = append(out, n)
		}
	}
	return out, nil
}

// ReadManifest parses and structurally validates a manifest file
// (format, version, mode, shard list shape, file-name hygiene). It
// does not touch the shard files — LoadDir does the content checks.
func ReadManifest(path string) (*Manifest, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var man Manifest
	if err := dec.Decode(&man); err != nil {
		return nil, fmt.Errorf("shard: %s: %v", path, err)
	}
	fail := func(format string, args ...interface{}) (*Manifest, error) {
		return nil, fmt.Errorf("shard: %s: %s", path, fmt.Sprintf(format, args...))
	}
	if man.Format != ManifestFormat {
		return fail("format %q, want %q", man.Format, ManifestFormat)
	}
	if man.Version != ManifestVersion {
		return fail("unsupported version %d (this build reads %d)", man.Version, ManifestVersion)
	}
	if man.Mode == "hash" {
		return fail("hash-mode shard directories are no longer served; re-run gtpq-shard on the source graph")
	}
	if man.Mode != ModeWCC {
		return fail("invalid mode %q", man.Mode)
	}
	if man.Replicated != 0 {
		return fail("replicated %d, want 0 (wcc shards hold every vertex once)", man.Replicated)
	}
	if len(man.Shards) == 0 {
		return fail("no shards listed")
	}
	if man.TotalNodes < 0 || man.TotalEdges < 0 {
		return fail("negative size fields")
	}
	for i, sf := range man.Shards {
		for _, fn := range []string{sf.Snap, sf.IDs} {
			if fn == "" || fn != filepath.Base(fn) || strings.HasPrefix(fn, ".") {
				return fail("shard %d: invalid file name %q", i, fn)
			}
		}
		if sf.Nodes < 0 || sf.Edges < 0 {
			return fail("shard %d: negative size fields", i)
		}
	}
	return &man, nil
}

// writeHashed replaces path atomically (atomicfile.Write) with what
// fill writes and returns the lower-case hex SHA-256 of those bytes,
// taken as they are written.
func writeHashed(path string, fill func(io.Writer) error) (string, error) {
	sum := sha256.New()
	err := atomicfile.Write(path, func(w io.Writer) error { return fill(io.MultiWriter(w, sum)) })
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(sum.Sum(nil)), nil
}

// VerifySHA256 checks blob's SHA-256 digest against the lower-case hex
// hash a manifest records. Replication base-shipping verifies each
// fetched shard file with it before writing anything to disk — the
// same integrity root LoadDir enforces locally.
func VerifySHA256(blob []byte, want string) error {
	sum := sha256.Sum256(blob)
	if got := hex.EncodeToString(sum[:]); !strings.EqualFold(got, want) {
		return fmt.Errorf("content hash %s does not match manifest %s", got, want)
	}
	return nil
}

// readVerified reads a file once and checks the digest of exactly the
// bytes it returns against the recorded hash.
func readVerified(path, want string) ([]byte, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if err := VerifySHA256(blob, want); err != nil {
		return nil, fmt.Errorf("%s: %v", filepath.Base(path), err)
	}
	return blob, nil
}

// writeIDs writes the local→global id mapping sidecar to w: magic,
// uvarint count, then uvarint deltas between consecutive ascending ids.
func writeIDs(w io.Writer, ids []graph.NodeID) error {
	b := binary.AppendUvarint([]byte(idsMagic), uint64(len(ids)))
	prev := int64(-1)
	for _, id := range ids {
		if int64(id) <= prev {
			return fmt.Errorf("ids not strictly ascending at %d", id)
		}
		b = binary.AppendUvarint(b, uint64(int64(id)-prev))
		prev = int64(id)
	}
	_, err := w.Write(b)
	return err
}

// parseIDs decodes an id sidecar's bytes into an ascending id list.
func parseIDs(name string, blob []byte) ([]graph.NodeID, error) {
	if len(blob) < len(idsMagic) || string(blob[:len(idsMagic)]) != idsMagic {
		return nil, fmt.Errorf("%s: missing %s magic", name, idsMagic)
	}
	r := bytes.NewReader(blob[len(idsMagic):])
	count, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("%s: truncated count", name)
	}
	if count > uint64(len(blob)) { // each id takes at least one byte
		return nil, fmt.Errorf("%s: implausible id count %d", name, count)
	}
	ids := make([]graph.NodeID, 0, count)
	prev := int64(-1)
	for i := uint64(0); i < count; i++ {
		delta, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, fmt.Errorf("%s: truncated at id %d", name, i)
		}
		if delta == 0 {
			return nil, fmt.Errorf("%s: ids not strictly ascending at entry %d", name, i)
		}
		prev += int64(delta)
		if prev > int64(^uint32(0)>>1) {
			return nil, fmt.Errorf("%s: id %d overflows", name, prev)
		}
		ids = append(ids, graph.NodeID(prev))
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("%s: %d trailing bytes", name, r.Len())
	}
	return ids, nil
}
