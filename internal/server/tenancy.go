package server

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"timingsubg"
	"timingsubg/client"
	"timingsubg/internal/tenant"
)

// The multi-tenant control plane. Tenancy is enabled by configuring a
// tenant.Registry (Config.Tenants); with none configured every request
// resolves to the nil tenant, which admits everything and owns the
// whole namespace — the single-tenant server, byte-identical on the
// wire to versions that predate tenancy.
//
// With tenancy enabled, every query lives under an internal roster
// name "<tenant>:<wire name>". Handlers translate at the boundary in
// both directions (never by string-parsing internal names — the
// s.queries map is the source of truth), so two tenants can both own a
// query named "frauds" without colliding, and no tenant can list,
// subscribe to, delete or even probe the existence of another's
// queries: a foreign name simply does not resolve inside the caller's
// namespace. The admin key addresses the roster verbatim instead,
// which is also how pre-tenancy durable queries (no owner recorded)
// remain manageable after tenancy is switched on.

// bearerKey extracts the Authorization: Bearer credential, or "".
func bearerKey(r *http.Request) string {
	const scheme = "Bearer "
	h := r.Header.Get("Authorization")
	if len(h) > len(scheme) && strings.EqualFold(h[:len(scheme)], scheme) {
		return strings.TrimSpace(h[len(scheme):])
	}
	return ""
}

// isAdmin reports whether key is the configured admin key. The
// comparison is by SHA-256 digest: the attacker cannot choose the
// digest of an unknown key, so digest equality leaks nothing useful
// through timing.
func (s *Server) isAdmin(key string) bool {
	return s.adminKey != "" && key != "" &&
		sha256.Sum256([]byte(key)) == sha256.Sum256([]byte(s.adminKey))
}

// authTenant resolves the request's tenant, writing the error response
// (401 with WWW-Authenticate, or 403 for an insufficient role) and
// returning ok=false when the request must not proceed. The nil tenant
// — returned when tenancy is disabled or the admin key is presented —
// admits everything and addresses the roster verbatim.
func (s *Server) authTenant(w http.ResponseWriter, r *http.Request, need tenant.Role) (*tenant.Tenant, bool) {
	if s.tenants == nil {
		return nil, true
	}
	key := bearerKey(r)
	if s.isAdmin(key) {
		return nil, true
	}
	if key == "" {
		// Default-tenant compatibility: unauthenticated requests may map
		// to a configured tenant, with full access — the upgrade path for
		// deployments that turn tenancy on under existing producers.
		if t := s.tenants.Anonymous(); t != nil {
			return t, true
		}
		w.Header().Set("WWW-Authenticate", `Bearer realm="tsserved"`)
		httpError(w, http.StatusUnauthorized, "missing API key")
		return nil, false
	}
	t, role, ok := s.tenants.Resolve(key)
	if !ok {
		w.Header().Set("WWW-Authenticate", `Bearer realm="tsserved"`)
		httpError(w, http.StatusUnauthorized, "unknown API key")
		return nil, false
	}
	if need == tenant.RoleWrite && role != tenant.RoleWrite {
		httpError(w, http.StatusForbidden, "API key of tenant %q is read-only", t.Name())
		return nil, false
	}
	return t, true
}

// scopedName maps a request's wire query name into the internal roster
// namespace: a tenant owns the "<tenant>:" prefix; the nil tenant
// (tenancy disabled, or admin) addresses the roster verbatim.
func (s *Server) scopedName(t *tenant.Tenant, wire string) string {
	if s.tenants == nil || t == nil {
		return wire
	}
	return t.Name() + ":" + wire
}

// rateLimited answers 429. A positive wait becomes a Retry-After
// header in whole seconds, rounded up — advertising an earlier retry
// than the bucket can honor would teach clients to hammer.
func rateLimited(w http.ResponseWriter, wait time.Duration, format string, args ...any) {
	if wait > 0 {
		secs := int64((wait + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	httpError(w, http.StatusTooManyRequests, format, args...)
}

// countingReader counts bytes actually pulled off the wire, so that
// when edge admission aborts an ingest mid-body the tenant's byte
// accounting reflects what was read, not the Content-Length the
// request advertised.
type countingReader struct {
	r io.ReadCloser
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countingReader) Close() error { return c.r.Close() }

// requireAdmin gates the /tenants admin API.
func (s *Server) requireAdmin(w http.ResponseWriter, r *http.Request) bool {
	if s.tenants == nil {
		httpError(w, http.StatusNotFound, "tenancy disabled (no tenants configured)")
		return false
	}
	if s.adminKey == "" {
		httpError(w, http.StatusForbidden, "tenant admin API disabled (no admin key configured)")
		return false
	}
	if !s.isAdmin(bearerKey(r)) {
		w.Header().Set("WWW-Authenticate", `Bearer realm="tsserved-admin"`)
		httpError(w, http.StatusUnauthorized, "admin key required")
		return false
	}
	return true
}

// tenantSpec converts the wire form of a tenant declaration.
func tenantSpec(w client.TenantSpec) tenant.Spec {
	spec := tenant.Spec{Name: w.Name, Limits: w.Limits}
	for _, k := range w.Keys {
		spec.Keys = append(spec.Keys, tenant.KeySpec{Key: k.Key, Role: tenant.Role(k.Role)})
	}
	return spec
}

// tenantInfo is a tenant's admin-facing snapshot: declared limits plus
// live usage (keys are never echoed back).
func tenantInfo(t *tenant.Tenant) client.TenantInfo {
	return client.TenantInfo{Name: t.Name(), Limits: t.Limits(), Usage: t.Usage()}
}

// handleCreateTenant registers a tenant at runtime (admin API). In
// durable mode the spec is persisted beside the WAL, so the tenant —
// keys included — survives a restart even if the static tenants file
// never learns about it.
func (s *Server) handleCreateTenant(w http.ResponseWriter, r *http.Request) {
	if !s.requireAdmin(w, r) {
		return
	}
	var spec client.TenantSpec
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&spec); err != nil {
		httpError(w, http.StatusBadRequest, "bad tenant spec: %v", err)
		return
	}
	t, err := s.tenants.Create(tenantSpec(spec))
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.sched.SetWeight(t.Name(), t.Weight())
	if s.stateDir != "" {
		if err := saveTenantFile(filepath.Join(s.stateDir, "tenants"), spec); err != nil {
			// The tenant is live but would not survive a restart; that is
			// a server error the admin must see.
			httpError(w, http.StatusInternalServerError, "tenant %q registered but not persisted: %v", t.Name(), err)
			return
		}
	}
	writeJSON(w, http.StatusCreated, tenantInfo(t))
}

// handleListTenants lists every tenant with limits and usage (admin
// API).
func (s *Server) handleListTenants(w http.ResponseWriter, r *http.Request) {
	if !s.requireAdmin(w, r) {
		return
	}
	names := s.tenants.Names()
	out := client.TenantList{Tenants: make([]client.TenantInfo, 0, len(names))}
	for _, name := range names {
		if t, ok := s.tenants.Get(name); ok {
			out.Tenants = append(out.Tenants, tenantInfo(t))
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// handleTenantStats serves a tenant's slice of GET /stats: its usage
// counters, its group aggregate (summed engine counters plus the
// group-wide detection histogram, which survives query retirement) and
// its per-query snapshots keyed by wire name.
func (s *Server) handleTenantStats(w http.ResponseWriter, r *http.Request, t *tenant.Tenant) {
	out := client.TenantStats{Tenant: t.Name()}
	err := s.doAs(r.Context(), t, func() {
		st := s.fl.Stats()
		out.Usage = t.Usage()
		if g, ok := st.Groups[t.Name()]; ok {
			out.Stats = &g
		}
		prefix := t.Name() + ":"
		out.Queries = make(map[string]timingsubg.Stats)
		for name, qs := range st.Queries {
			if wire, ok := strings.CutPrefix(name, prefix); ok {
				out.Queries[wire] = qs
			}
		}
	})
	if err != nil {
		httpError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, out)
}

// usageByTenant is every tenant's usage keyed by name, or nil when
// tenancy is off.
func (s *Server) usageByTenant() map[string]tenant.Usage {
	if s.tenants == nil {
		return nil
	}
	names := s.tenants.Names()
	out := make(map[string]tenant.Usage, len(names))
	for _, name := range names {
		if t, ok := s.tenants.Get(name); ok {
			out[name] = t.Usage()
		}
	}
	return out
}

// Runtime-created tenants are durable alongside the WAL: each one is a
// JSON file <dir>/<name>.json holding the wire-format TenantSpec.
// Static tenants-file entries are NOT written here — the file an
// operator manages stays the source of truth for the tenants it names.

const tenantFileSuffix = ".json"

// saveTenantFile atomically persists one runtime tenant registration.
// Specs carry credentials, so files are not group- or world-readable.
func saveTenantFile(dir string, spec client.TenantSpec) error {
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return fmt.Errorf("server: tenant registry mkdir: %w", err)
	}
	data, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, "tenant-*.tmp")
	if err != nil {
		return fmt.Errorf("server: tenant file temp: %w", err)
	}
	tmpName := tmp.Name()
	if err := tmp.Chmod(0o600); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("server: tenant file chmod: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("server: tenant file write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("server: tenant file sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("server: tenant file close: %w", err)
	}
	if err := os.Rename(tmpName, filepath.Join(dir, spec.Name+tenantFileSuffix)); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("server: tenant file rename: %w", err)
	}
	return nil
}

// loadTenants restores runtime-created tenants from dir into reg,
// skipping names the registry already has (the operator's tenants file
// wins over a stale persisted spec). A missing directory means none
// were ever created.
func loadTenants(dir string, reg *tenant.Registry, sched *tenant.Sched[op]) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("server: read tenant registry %s: %w", dir, err)
	}
	names := make([]string, 0, len(entries))
	for _, ent := range entries {
		if !ent.IsDir() && strings.HasSuffix(ent.Name(), tenantFileSuffix) {
			names = append(names, ent.Name())
		}
	}
	sort.Strings(names)
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return fmt.Errorf("server: read tenant file %s: %w", name, err)
		}
		var spec client.TenantSpec
		if err := json.Unmarshal(data, &spec); err != nil {
			return fmt.Errorf("server: parse tenant file %s: %w", name, err)
		}
		if _, exists := reg.Get(spec.Name); exists {
			continue
		}
		t, err := reg.Create(tenantSpec(spec))
		if err != nil {
			return fmt.Errorf("server: restore tenant file %s: %w", name, err)
		}
		sched.SetWeight(t.Name(), t.Weight())
	}
	return nil
}
