//! Runtime program "compilation" and the on-disk binary cache.
//!
//! The paper (Section III-B): *"Compiling the source code every time from
//! source is a time-consuming task, taking up to several hundreds of
//! milliseconds. [...] Therefore, SkelCL saves already compiled kernels on
//! disk. [...] loading kernels from disk is at least five times faster than
//! building them from source."*
//!
//! Rust cannot compile OpenCL-C strings at runtime, so a build here does two
//! things: (1) it *actually performs* deterministic work proportional to the
//! source size (so the wall-clock benefit of the cache is real and
//! measurable; `figures cache` prints it), and (2) it charges the modeled
//! compile cost from the driver profile to the virtual host clock (so the
//! figures harness reports the paper-comparable numbers). A cache hit
//! replaces both with the much cheaper binary load.

use crate::error::{Error, Result};
use crate::kernel::KernelBody;
use crate::timing::DriverProfile;
use std::fs;
use std::path::{Path, PathBuf};

/// FNV-1a, used to key cached binaries by program source.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// A program: a named OpenCL-C source string, as handed to
/// `clCreateProgramWithSource`. SkelCL's code generator produces these by
/// merging user functions into skeleton templates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    pub name: String,
    pub source: String,
    /// Number of kernel arguments, for launch-overhead accounting.
    pub n_args: usize,
}

impl Program {
    pub fn from_source(name: impl Into<String>, source: impl Into<String>) -> Self {
        Program {
            name: name.into(),
            source: source.into(),
            n_args: 4,
        }
    }

    pub fn with_arg_count(mut self, n: usize) -> Self {
        self.n_args = n;
        self
    }

    pub fn hash(&self) -> u64 {
        fnv1a(self.source.as_bytes())
    }
}

/// How a kernel became executable: a fresh source build or a cache load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BuildOutcome {
    pub from_cache: bool,
    /// Modeled cost charged to the virtual host clock.
    pub virtual_s: f64,
    /// Real host time the (simulated) build took.
    pub wall_s: f64,
}

/// An executable kernel: source identity + launch metadata + body.
#[derive(Clone)]
pub struct CompiledKernel {
    pub name: String,
    pub source_hash: u64,
    pub source_len: usize,
    pub n_args: usize,
    pub(crate) body: KernelBody,
}

impl CompiledKernel {
    /// The same compiled program with a different executable body.
    ///
    /// Real OpenCL sets fresh kernel arguments on an already-built kernel
    /// before every launch; here the body closure captures the launch's
    /// buffers, so each call rebinds the body while the (already paid for)
    /// program build is reused.
    pub fn with_body(&self, body: KernelBody) -> CompiledKernel {
        CompiledKernel {
            name: self.name.clone(),
            source_hash: self.source_hash,
            source_len: self.source_len,
            n_args: self.n_args,
            body,
        }
    }
}

impl std::fmt::Debug for CompiledKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledKernel")
            .field("name", &self.name)
            .field("source_hash", &format_args!("{:016x}", self.source_hash))
            .field("source_len", &self.source_len)
            .finish()
    }
}

/// The compiler front-end with its on-disk binary cache.
#[derive(Debug)]
pub struct Compiler {
    cache_dir: PathBuf,
}

impl Compiler {
    /// `cache_dir` is created on demand; cached binaries are tiny files
    /// keyed by source hash.
    pub fn new(cache_dir: PathBuf) -> Self {
        Compiler { cache_dir }
    }

    pub fn cache_dir(&self) -> &Path {
        &self.cache_dir
    }

    fn cache_path(&self, hash: u64) -> PathBuf {
        self.cache_dir.join(format!("{hash:016x}.clbin"))
    }

    /// Is a binary for this program already cached?
    pub fn is_cached(&self, program: &Program) -> bool {
        self.cache_path(program.hash()).exists()
    }

    /// Remove all cached binaries (tests / cold-start experiments).
    pub fn clear_cache(&self) -> Result<()> {
        if self.cache_dir.exists() {
            fs::remove_dir_all(&self.cache_dir)
                .map_err(|e| Error::BuildFailure(format!("clearing cache: {e}")))?;
        }
        Ok(())
    }

    /// Build `program` under `profile`, producing an executable kernel and
    /// the build outcome (cache hit or source build, with costs).
    pub fn build(
        &self,
        program: &Program,
        body: KernelBody,
        profile: &DriverProfile,
    ) -> Result<(CompiledKernel, BuildOutcome)> {
        if program.source.trim().is_empty() {
            return Err(Error::BuildFailure(format!(
                "program '{}' has empty source",
                program.name
            )));
        }
        let hash = program.hash();
        let wall_start = std::time::Instant::now();

        let outcome = if !profile.runtime_compile {
            // CUDA model: modules were compiled offline by nvcc; loading a
            // module at runtime is (modeled as) free.
            BuildOutcome {
                from_cache: false,
                virtual_s: 0.0,
                wall_s: wall_start.elapsed().as_secs_f64(),
            }
        } else if let Some(cached) = self.try_load(hash) {
            if cached != source_fingerprint(&program.source) {
                return Err(Error::BuildFailure(format!(
                    "cache corruption for program '{}'",
                    program.name
                )));
            }
            BuildOutcome {
                from_cache: true,
                virtual_s: profile.cache_load_cost_s(program.source.len()),
                wall_s: wall_start.elapsed().as_secs_f64(),
            }
        } else {
            // Simulated source build: deterministic work proportional to the
            // source size, then persist the "binary".
            let fp = compile_from_source(&program.source);
            self.store(hash, fp)?;
            BuildOutcome {
                from_cache: false,
                virtual_s: profile.compile_cost_s(program.source.len()),
                wall_s: wall_start.elapsed().as_secs_f64(),
            }
        };

        Ok((
            CompiledKernel {
                name: program.name.clone(),
                source_hash: hash,
                source_len: program.source.len(),
                n_args: program.n_args,
                body,
            },
            outcome,
        ))
    }

    fn try_load(&self, hash: u64) -> Option<u64> {
        let bytes = fs::read(self.cache_path(hash)).ok()?;
        if bytes.len() != 8 {
            return None;
        }
        Some(u64::from_le_bytes(bytes.try_into().ok()?))
    }

    fn store(&self, hash: u64, fingerprint: u64) -> Result<()> {
        fs::create_dir_all(&self.cache_dir)
            .map_err(|e| Error::BuildFailure(format!("creating cache dir: {e}")))?;
        fs::write(self.cache_path(hash), fingerprint.to_le_bytes())
            .map_err(|e| Error::BuildFailure(format!("writing cache entry: {e}")))
    }
}

/// The "binary" we cache: a fingerprint over the source, cheap to recompute
/// for validation.
fn source_fingerprint(source: &str) -> u64 {
    fnv1a(source.as_bytes()).rotate_left(17) ^ 0x5ce1c0de
}

/// Deterministic busy work standing in for a real OpenCL source build:
/// many hashing passes over the source so wall time scales with its length.
fn compile_from_source(source: &str) -> u64 {
    const PASSES: usize = 600;
    let mut acc = 0u64;
    let bytes = source.as_bytes();
    for pass in 0..PASSES {
        let mut h = fnv1a(bytes) ^ pass as u64;
        // A little extra mixing per pass to defeat optimisation to a no-op.
        h = h
            .wrapping_mul(0x9e3779b97f4a7c15)
            .rotate_left((pass % 63) as u32);
        acc ^= h;
    }
    let _ = acc; // fingerprint must not depend on pass count
    source_fingerprint(source)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::WorkGroup;
    use std::sync::Arc;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("vgpu-test-cache-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn noop_body() -> KernelBody {
        Arc::new(|_wg: &WorkGroup| {})
    }

    #[test]
    fn first_build_compiles_second_loads_from_cache() {
        let c = Compiler::new(tmp_dir("roundtrip"));
        let p = Program::from_source("k", "__kernel void k() {}");
        let profile = DriverProfile::opencl();

        assert!(!c.is_cached(&p));
        let (_, o1) = c.build(&p, noop_body(), &profile).unwrap();
        assert!(!o1.from_cache);
        assert!(c.is_cached(&p));

        let (_, o2) = c.build(&p, noop_body(), &profile).unwrap();
        assert!(o2.from_cache);
        assert!(
            o1.virtual_s / o2.virtual_s >= 5.0,
            "paper claims cache load is at least 5x faster: {} vs {}",
            o1.virtual_s,
            o2.virtual_s
        );
        c.clear_cache().unwrap();
    }

    #[test]
    fn different_sources_get_different_cache_entries() {
        let c = Compiler::new(tmp_dir("distinct"));
        let profile = DriverProfile::opencl();
        let p1 = Program::from_source("a", "__kernel void a() {}");
        let p2 = Program::from_source("a", "__kernel void a() { /*v2*/ }");
        c.build(&p1, noop_body(), &profile).unwrap();
        assert!(c.is_cached(&p1));
        assert!(!c.is_cached(&p2));
        c.clear_cache().unwrap();
    }

    #[test]
    fn cuda_profile_skips_runtime_compilation() {
        let c = Compiler::new(tmp_dir("cuda"));
        let p = Program::from_source("k", "__global__ void k() {}");
        let (_, o) = c.build(&p, noop_body(), &DriverProfile::cuda()).unwrap();
        assert_eq!(o.virtual_s, 0.0);
        assert!(!c.is_cached(&p), "cuda path must not populate the cache");
        c.clear_cache().unwrap();
    }

    #[test]
    fn empty_source_is_a_build_failure() {
        let c = Compiler::new(tmp_dir("empty"));
        let p = Program::from_source("k", "   ");
        assert!(matches!(
            c.build(&p, noop_body(), &DriverProfile::opencl()),
            Err(Error::BuildFailure(_))
        ));
    }

    #[test]
    fn clear_cache_forces_recompilation() {
        let c = Compiler::new(tmp_dir("clear"));
        let p = Program::from_source("k", "__kernel void k() {}");
        let profile = DriverProfile::opencl();
        c.build(&p, noop_body(), &profile).unwrap();
        c.clear_cache().unwrap();
        let (_, o) = c.build(&p, noop_body(), &profile).unwrap();
        assert!(!o.from_cache);
        c.clear_cache().unwrap();
    }

    #[test]
    fn fnv1a_reference_values() {
        // Known FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
    }
}
