//! A lint pass over generated OpenCL kernel sources.
//!
//! Every program the codegen layer emits is a string of OpenCL C; nothing
//! type-checks it before the (virtual) driver compiles it. This pass closes
//! the gap for the defect classes a skeleton library's templates can
//! actually introduce:
//!
//! * [`LintRule::DivergentBarrier`] — `barrier()` under thread-divergent
//!   control flow (a condition depending on `get_global_id`/`get_local_id`).
//!   On real hardware this deadlocks or is undefined; templates that guard
//!   a tree-reduction step incorrectly hit exactly this.
//! * [`LintRule::LocalMemBudget`] — statically declared `__local` arrays
//!   exceeding the device's local-memory size (a launch-time failure on
//!   real OpenCL, found here at lint time).
//! * [`LintRule::ArityMismatch`] — the host-side argument count
//!   ([`vgpu::Program::n_args`]) matches no `__kernel` signature in the
//!   source, so `clSetKernelArg` would fail or silently bind garbage.
//! * [`LintRule::UnguardedGlobalAccess`] — a `__global` pointer indexed by
//!   a thread-id-derived expression outside any bounds guard. Skeleton
//!   kernels launch rounded-up NDRanges, so the template **must** guard.
//! * [`LintRule::UndeclaredIdentifier`] — an identifier inside a `[...]`
//!   subscript that is neither a kernel parameter, nor a local the body
//!   binds, nor a `#define`: a template that pastes an index expression
//!   from another kernel (say `op0[i]` into a kernel with no `i`) would
//!   not compile.
//! * [`LintRule::UndefinedFunction`] — a `__kernel` body calls a name that
//!   the program defines nowhere (no function, no function-like macro) and
//!   that OpenCL C does not provide: a template that calls a stage by a
//!   composite name but pastes only its parts would not link.
//!
//! The scanner is deliberately lexical (comment stripping, brace matching,
//! word-level taint propagation) rather than a C parser: user functions are
//! pasted into the source verbatim and may even be Rust (`skel_fn!` twins),
//! so the pass restricts itself to the `__kernel` functions it can anchor
//! precisely, and tolerates arbitrary text around them.

use std::collections::{HashMap, HashSet};
use std::fmt;

/// The defect classes the linter reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LintRule {
    DivergentBarrier,
    LocalMemBudget,
    ArityMismatch,
    UnguardedGlobalAccess,
    UndeclaredIdentifier,
    UndefinedFunction,
}

impl fmt::Display for LintRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            LintRule::DivergentBarrier => "divergent-barrier",
            LintRule::LocalMemBudget => "local-mem-budget",
            LintRule::ArityMismatch => "arity-mismatch",
            LintRule::UnguardedGlobalAccess => "unguarded-global-access",
            LintRule::UndeclaredIdentifier => "undeclared-identifier",
            LintRule::UndefinedFunction => "undefined-function",
        })
    }
}

/// One finding: which rule fired, in which program and kernel, and why.
#[derive(Debug, Clone, PartialEq)]
pub struct LintFinding {
    pub rule: LintRule,
    pub program: String,
    pub kernel: String,
    pub message: String,
}

impl fmt::Display for LintFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {}::{}: {}",
            self.rule, self.program, self.kernel, self.message
        )
    }
}

/// Lint one generated program source. `n_args` is the host-side argument
/// count the launch path will marshal; `local_mem_bytes` is the target
/// device's local-memory budget.
pub fn lint_program(
    program: &str,
    source: &str,
    n_args: usize,
    local_mem_bytes: u64,
) -> Vec<LintFinding> {
    let clean = strip_comments(source);
    let defines = collect_defines(&clean);
    let functions = collect_functions(&clean);
    let kernels = extract_kernels(&clean);
    let mut findings = Vec::new();

    // Arity: the host marshals `n_args` arguments; at least one __kernel
    // signature must accept exactly that many.
    if !kernels.is_empty() && !kernels.iter().any(|k| k.params.len() == n_args) {
        let sigs: Vec<String> = kernels
            .iter()
            .map(|k| format!("{}/{}", k.name, k.params.len()))
            .collect();
        findings.push(LintFinding {
            rule: LintRule::ArityMismatch,
            program: program.to_string(),
            kernel: kernels[0].name.clone(),
            message: format!(
                "host marshals {n_args} argument(s) but no kernel signature matches (found {})",
                sigs.join(", ")
            ),
        });
    }

    for k in &kernels {
        lint_kernel(program, k, &defines, local_mem_bytes, &mut findings);
        check_calls(program, k, &functions, &mut findings);
    }
    findings
}

// ---------------------------------------------------------------------------
// Source preparation
// ---------------------------------------------------------------------------

/// Replace `//` and `/* */` comments with spaces (preserving offsets is not
/// needed, but preserving token separation is).
fn strip_comments(source: &str) -> String {
    let bytes = source.as_bytes();
    let mut out = String::with_capacity(source.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'/' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
            while i < bytes.len() && bytes[i] != b'\n' {
                i += 1;
            }
            out.push(' ');
        } else if bytes[i] == b'/' && i + 1 < bytes.len() && bytes[i + 1] == b'*' {
            i += 2;
            while i + 1 < bytes.len() && !(bytes[i] == b'*' && bytes[i + 1] == b'/') {
                i += 1;
            }
            i = (i + 2).min(bytes.len());
            out.push(' ');
        } else {
            out.push(bytes[i] as char);
            i += 1;
        }
    }
    out
}

/// Object-like `#define NAME <integer expr>` constants (function-like
/// macros are skipped — the linter treats their uses as opaque).
fn collect_defines(source: &str) -> HashMap<String, String> {
    let mut map = HashMap::new();
    for line in source.lines() {
        let line = line.trim();
        let Some(rest) = line.strip_prefix("#define") else {
            continue;
        };
        let rest = rest.trim_start();
        let name: String = rest
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        if name.is_empty() {
            continue;
        }
        let after = &rest[name.len()..];
        if after.starts_with('(') {
            continue; // function-like macro
        }
        map.insert(name, after.trim().to_string());
    }
    map
}

/// Words that may stand right before a call without declaring it.
const CALL_PREFIXES: [&str; 5] = ["return", "else", "do", "case", "sizeof"];

/// Keywords written like calls: `if (…)`, `sizeof(…)`.
const CALL_KEYWORDS: [&str; 5] = ["if", "for", "while", "switch", "sizeof"];

/// Every `name(` in `text` with the offset the name starts at, skipping
/// member and method calls (`a.f(`, `a->f(`).
fn calls(text: &str) -> Vec<(usize, &str)> {
    let bytes = text.as_bytes();
    let word = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if !word(bytes[i]) {
            i += 1;
            continue;
        }
        let start = i;
        while i < bytes.len() && word(bytes[i]) {
            i += 1;
        }
        let name = &text[start..i];
        let member = text[..start].trim_end();
        if !bytes[start].is_ascii_digit()
            && text[i..].trim_start().starts_with('(')
            && !member.ends_with('.')
            && !member.ends_with("->")
        {
            out.push((start, name));
        }
    }
    out
}

/// The names the source defines as functions: every `name(` right after
/// another word that is not a keyword a call can follow — a return type
/// (C), `fn` (a pasted Rust twin) or `#define` (a function-like macro).
fn collect_functions(source: &str) -> HashSet<String> {
    calls(source)
        .into_iter()
        .filter(|&(at, _)| {
            let before = source[..at].trim_end();
            let prev = before
                .rsplit(|c: char| !(c.is_alphanumeric() || c == '_'))
                .next()
                .unwrap_or_default();
            !prev.is_empty() && !CALL_PREFIXES.contains(&prev)
        })
        .map(|(_, name)| name.to_string())
        .collect()
}

/// OpenCL C built-in functions a generated kernel may call by name.
const BUILTINS: &str = "barrier mem_fence read_mem_fence write_mem_fence sqrt rsqrt cbrt fabs \
    abs clamp min max fmin fmax mad fma mix step smoothstep sign floor ceil round rint trunc \
    fmod remainder exp exp2 exp10 log log2 log10 pow pown powr sin cos tan asin acos atan atan2 \
    sinh cosh tanh hypot isnan isinf isfinite select dot length distance normalize cross mul24 \
    mad24 popcount clz rotate printf";

/// Name prefixes of OpenCL C built-in families (`get_global_id`,
/// `atomic_add`, `convert_float`, `as_uint`, `vload4`, `native_exp`, …).
const BUILTIN_PREFIXES: &str = "get_ atomic_ atom_ convert_ as_ vload vstore native_ half_ \
    async_work_group_ wait_group_events prefetch";

/// Report each name a kernel body calls that `functions` lacks and OpenCL
/// C does not provide.
fn check_calls(
    program: &str,
    k: &Kernel,
    functions: &HashSet<String>,
    findings: &mut Vec<LintFinding>,
) {
    let mut reported = HashSet::new();
    for (_, name) in calls(&k.body) {
        let provided = CALL_KEYWORDS.contains(&name)
            || BUILTINS.split_whitespace().any(|b| b == name)
            || BUILTIN_PREFIXES
                .split_whitespace()
                .any(|p| name.starts_with(p));
        if !provided && !functions.contains(name) && reported.insert(name) {
            findings.push(LintFinding {
                rule: LintRule::UndefinedFunction,
                program: program.to_string(),
                kernel: k.name.clone(),
                message: format!(
                    "`{name}(…)` is called but neither defined in the program nor an OpenCL C \
                     built-in"
                ),
            });
        }
    }
}

/// One kernel parameter, already split and classified.
#[derive(Debug, Clone)]
struct Param {
    name: String,
    global_ptr: bool,
    local_ptr: bool,
}

#[derive(Debug, Clone)]
struct Kernel {
    name: String,
    params: Vec<Param>,
    body: String,
}

/// Find every `__kernel void <name>(<params>) { <body> }` by brace
/// matching; anything outside those functions is ignored.
fn extract_kernels(source: &str) -> Vec<Kernel> {
    let mut kernels = Vec::new();
    let mut search = 0;
    while let Some(rel) = source[search..].find("__kernel") {
        let at = search + rel;
        search = at + "__kernel".len();
        let rest = &source[search..];
        let Some(po) = rest.find('(') else { break };
        let header = &rest[..po];
        let name = header
            .split_whitespace()
            .last()
            .unwrap_or_default()
            .to_string();
        let Some(pc) = matching(rest, po, '(', ')') else {
            break;
        };
        let params = split_params(&rest[po + 1..pc]);
        let after = &rest[pc + 1..];
        let Some(bo) = after.find('{') else { break };
        if after[..bo].trim() != "" {
            continue; // not a definition
        }
        let Some(bc) = matching(after, bo, '{', '}') else {
            break;
        };
        kernels.push(Kernel {
            name,
            params,
            body: after[bo + 1..bc].to_string(),
        });
        search += pc + 1 + bc + 1;
    }
    kernels
}

/// Index of the delimiter closing the one at `open`.
fn matching(text: &str, open: usize, oc: char, cc: char) -> Option<usize> {
    let mut depth = 0usize;
    for (i, c) in text.char_indices().skip(open) {
        if c == oc {
            depth += 1;
        } else if c == cc {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

/// Split a parameter list on top-level commas and classify each entry.
fn split_params(list: &str) -> Vec<Param> {
    let mut params = Vec::new();
    let mut depth = 0i32;
    let mut cur = String::new();
    for c in list.chars() {
        match c {
            '(' | '[' => {
                depth += 1;
                cur.push(c);
            }
            ')' | ']' => {
                depth -= 1;
                cur.push(c);
            }
            ',' if depth == 0 => {
                params.push(cur.clone());
                cur.clear();
            }
            _ => cur.push(c),
        }
    }
    if !cur.trim().is_empty() {
        params.push(cur);
    }
    params
        .into_iter()
        .filter(|p| !p.trim().is_empty())
        .map(|p| {
            let is_ptr = p.contains('*');
            let name = p
                .split(|c: char| !(c.is_alphanumeric() || c == '_'))
                .rfind(|t| !t.is_empty())
                .unwrap_or_default()
                .to_string();
            Param {
                name,
                global_ptr: is_ptr && p.contains("__global"),
                local_ptr: is_ptr && p.contains("__local"),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Taint: which identifiers derive from a thread id
// ---------------------------------------------------------------------------

/// `true` if `text` contains `ident` as a whole word.
fn contains_ident(text: &str, ident: &str) -> bool {
    let mut start = 0;
    while let Some(rel) = text[start..].find(ident) {
        let at = start + rel;
        let before_ok = at == 0
            || !text[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let end = at + ident.len();
        let after_ok = end >= text.len()
            || !text[end..]
                .chars()
                .next()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        start = at + ident.len();
    }
    false
}

/// `true` if the expression depends on a per-thread id — directly or via an
/// already-tainted identifier. `get_local_size`/`get_group_id`/
/// `get_num_groups` are uniform across a work-group and deliberately not
/// sources: every real reduction loop iterates on the local size.
fn expr_tainted(expr: &str, tainted: &HashSet<String>) -> bool {
    contains_ident(expr, "get_global_id")
        || contains_ident(expr, "get_local_id")
        || tainted.iter().any(|t| contains_ident(expr, t))
}

/// Fixpoint taint propagation over every simple assignment / declaration
/// (`name = expr` up to the next top-level `,`, `;` or `)`), anywhere in
/// the body — including `for` initializers and multi-declarator statements.
fn propagate_taint(body: &str) -> HashSet<String> {
    let mut tainted: HashSet<String> = HashSet::new();
    let assigns = collect_assignments(body);
    loop {
        let before = tainted.len();
        for (name, rhs) in &assigns {
            if expr_tainted(rhs, &tainted) {
                tainted.insert(name.clone());
            }
        }
        if tainted.len() == before {
            return tainted;
        }
    }
}

/// All `<ident> = <expr>` pairs in the body. Compound assignments
/// (`<<=`, `+=`, ...) keep their target's existing taint; plain stores
/// into array elements (`a[i] = ...`) are not identifier bindings.
fn collect_assignments(body: &str) -> Vec<(String, String)> {
    let bytes = body.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'=' {
            let prev = bytes[..i]
                .iter()
                .rev()
                .find(|b| !b.is_ascii_whitespace())
                .copied();
            let next = bytes.get(i + 1).copied();
            let compound = matches!(
                prev,
                Some(b'<' | b'>' | b'!' | b'+' | b'-' | b'*' | b'/' | b'%' | b'&' | b'|' | b'^')
            );
            if !compound && next != Some(b'=') {
                // identifier immediately left of '='
                let mut e = i;
                while e > 0 && bytes[e - 1].is_ascii_whitespace() {
                    e -= 1;
                }
                let mut s = e;
                while s > 0 && (bytes[s - 1].is_ascii_alphanumeric() || bytes[s - 1] == b'_') {
                    s -= 1;
                }
                if s < e {
                    let name = &body[s..e];
                    // RHS up to the next top-level , ; or )
                    let mut j = i + 1;
                    let mut depth = 0i32;
                    while j < bytes.len() {
                        match bytes[j] {
                            b'(' | b'[' => depth += 1,
                            b')' | b']' if depth > 0 => depth -= 1,
                            b')' | b';' | b',' | b'{' | b'}' if depth == 0 => break,
                            _ => {}
                        }
                        j += 1;
                    }
                    out.push((name.to_string(), body[i + 1..j].to_string()));
                    i = j;
                    continue;
                }
            }
            // skip ==, <=, ... entirely
            if next == Some(b'=') {
                i += 1;
            }
        }
        i += 1;
    }
    out
}

// ---------------------------------------------------------------------------
// Per-kernel rules
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum ScopeKind {
    /// `{ ... }` — popped by the matching `}`.
    Brace,
    /// A brace-less `if (...) stmt;` — popped by the next `;`.
    Stmt,
}

#[derive(Debug, Clone, Copy)]
struct Scope {
    kind: ScopeKind,
    /// The controlling condition depends on a thread id.
    divergent: bool,
    /// The controlling condition is a bounds guard: a comparison involving
    /// a tainted identifier.
    guard: bool,
}

fn lint_kernel(
    program: &str,
    k: &Kernel,
    defines: &HashMap<String, String>,
    local_mem_bytes: u64,
    findings: &mut Vec<LintFinding>,
) {
    let mut tainted = propagate_taint(&k.body);
    // Parameters are uniform (same value for every work-item) — remove any
    // accidental collision with an assignment-derived name.
    for p in &k.params {
        tainted.remove(&p.name);
    }

    check_local_arrays(program, k, defines, local_mem_bytes, findings);
    check_subscript_identifiers(program, k, defines, findings);

    let globals: HashSet<&str> = k
        .params
        .iter()
        .filter(|p| p.global_ptr)
        .map(|p| p.name.as_str())
        .collect();
    let locals: HashSet<&str> = k
        .params
        .iter()
        .filter(|p| p.local_ptr)
        .map(|p| p.name.as_str())
        .collect();

    let body = &k.body;
    let bytes = body.as_bytes();
    let mut scopes: Vec<Scope> = Vec::new();
    let mut stmt_start = 0usize;
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i];
        // Control-flow keyword with a parenthesized condition?
        if (bytes[i].is_ascii_alphabetic() || bytes[i] == b'_')
            && (i == 0 || !(bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_'))
        {
            let mut e = i;
            while e < bytes.len() && (bytes[e].is_ascii_alphanumeric() || bytes[e] == b'_') {
                e += 1;
            }
            let word = &body[i..e];
            if matches!(word, "if" | "for" | "while") {
                let rest = &body[e..];
                if let Some(po) = rest.find('(') {
                    if rest[..po].trim().is_empty() {
                        if let Some(pc) = matching(rest, po, '(', ')') {
                            // For `for`, the guard is the middle clause; the
                            // whole header works for taint either way.
                            let cond = &rest[po + 1..pc];
                            let divergent = expr_tainted(cond, &tainted);
                            let guard = cond_is_bounds_guard(cond, &tainted);
                            let mut j = e + pc + 1;
                            while j < bytes.len() && bytes[j].is_ascii_whitespace() {
                                j += 1;
                            }
                            let kind = if bytes.get(j) == Some(&b'{') {
                                j += 1; // consume the brace here
                                ScopeKind::Brace
                            } else {
                                ScopeKind::Stmt
                            };
                            scopes.push(Scope {
                                kind,
                                divergent,
                                guard,
                            });
                            stmt_start = j;
                            i = j;
                            continue;
                        }
                    }
                }
            }
            // barrier under divergent control flow?
            if word == "barrier" && scopes.iter().any(|s| s.divergent) {
                findings.push(LintFinding {
                    rule: LintRule::DivergentBarrier,
                    program: program.to_string(),
                    kernel: k.name.clone(),
                    message:
                        "barrier() under control flow that depends on the thread id: work-items \
                         taking different paths deadlock at the barrier"
                            .to_string(),
                });
            }
            // tainted index into a __global pointer?
            if globals.contains(word) && !locals.contains(word) {
                let mut j = e;
                while j < bytes.len() && bytes[j].is_ascii_whitespace() {
                    j += 1;
                }
                if bytes.get(j) == Some(&b'[') {
                    if let Some(bc) = matching(body, j, '[', ']') {
                        let index = &body[j + 1..bc];
                        if expr_tainted(index, &tainted) {
                            let in_guard = scopes.iter().any(|s| s.guard)
                                || ternary_guarded(&body[stmt_start..i], &tainted);
                            if !in_guard {
                                findings.push(LintFinding {
                                    rule: LintRule::UnguardedGlobalAccess,
                                    program: program.to_string(),
                                    kernel: k.name.clone(),
                                    message: format!(
                                        "`{word}[{}]` indexes global memory by a thread-id-derived \
                                         expression with no enclosing bounds check",
                                        index.trim()
                                    ),
                                });
                            }
                        }
                        i = bc + 1;
                        continue;
                    }
                }
            }
            i = e;
            continue;
        }
        match c {
            b'{' => {
                scopes.push(Scope {
                    kind: ScopeKind::Brace,
                    divergent: false,
                    guard: false,
                });
                stmt_start = i + 1;
            }
            b'}' => {
                while let Some(s) = scopes.pop() {
                    if matches!(s.kind, ScopeKind::Brace) {
                        break;
                    }
                }
                stmt_start = i + 1;
            }
            b';' => {
                while scopes
                    .last()
                    .is_some_and(|s| matches!(s.kind, ScopeKind::Stmt))
                {
                    scopes.pop();
                }
                stmt_start = i + 1;
            }
            _ => {}
        }
        i += 1;
    }
}

/// A condition counts as a bounds guard when it compares something
/// involving a tainted identifier (`gid < n`, `row < n_rows && ...`,
/// `lid == 0`).
fn cond_is_bounds_guard(cond: &str, tainted: &HashSet<String>) -> bool {
    let relational = ["<", ">", "<=", ">=", "==", "!="]
        .iter()
        .any(|op| cond.contains(op));
    relational && expr_tainted(cond, tainted)
}

/// `stmt_prefix` is the current statement's text up to the access. If it
/// contains a `?` whose condition (text before the `?`) is a bounds guard,
/// the access sits in a guarded ternary arm:
/// `out[x] = (gid < n) ? in[gid] : 0;`.
fn ternary_guarded(stmt_prefix: &str, tainted: &HashSet<String>) -> bool {
    stmt_prefix
        .find('?')
        .is_some_and(|q| cond_is_bounds_guard(&stmt_prefix[..q], tainted))
}

/// Type keywords a cast inside a subscript may name: `in[(int)n_cols]`.
const CAST_TYPES: [&str; 12] = [
    "char", "uchar", "short", "ushort", "int", "uint", "long", "ulong", "half", "float", "double",
    "size_t",
];

/// Report each identifier used inside a `[...]` subscript of the body that
/// is neither a parameter, a local the body binds (every name
/// [`collect_assignments`] finds, `for` initialisers included) nor a
/// `#define`. Calls (`get_group_id(0)`, function-like macros), the type
/// keywords of casts, member names and number literals are skipped.
fn check_subscript_identifiers(
    program: &str,
    k: &Kernel,
    defines: &HashMap<String, String>,
    findings: &mut Vec<LintFinding>,
) {
    let body = &k.body;
    let declared: HashSet<String> = k
        .params
        .iter()
        .map(|p| p.name.clone())
        .chain(collect_assignments(body).into_iter().map(|(name, _)| name))
        .chain(defines.keys().cloned())
        .collect();
    let mut reported = HashSet::new();
    let mut search = 0;
    while let Some(rel) = body[search..].find('[') {
        let open = search + rel;
        let Some(close) = matching(body, open, '[', ']') else {
            return;
        };
        let sub = &body[open + 1..close];
        let bytes = sub.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            let word_char = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
            if !word_char(bytes[i]) {
                i += 1;
                continue;
            }
            let start = i;
            let number = bytes[i].is_ascii_digit();
            while i < bytes.len() && (word_char(bytes[i]) || (number && bytes[i] == b'.')) {
                i += 1;
            }
            let word = &sub[start..i];
            let before = sub[..start].trim_end();
            let after = sub[i..].trim_start();
            let skipped = number
                || before.ends_with('.')
                || before.ends_with("->")
                || after.starts_with('(')
                || (CAST_TYPES.contains(&word) && after.starts_with(')'));
            if !skipped && !declared.contains(word) && reported.insert(word.to_string()) {
                findings.push(LintFinding {
                    rule: LintRule::UndeclaredIdentifier,
                    program: program.to_string(),
                    kernel: k.name.clone(),
                    message: format!(
                        "`{word}` in the subscript `[{}]` is not a kernel parameter, a local \
                         or a #define",
                        sub.trim()
                    ),
                });
            }
        }
        search = close + 1;
    }
}

/// Sum statically declared `__local` array bytes against the budget.
fn check_local_arrays(
    program: &str,
    k: &Kernel,
    defines: &HashMap<String, String>,
    local_mem_bytes: u64,
    findings: &mut Vec<LintFinding>,
) {
    let body = &k.body;
    let mut total: u64 = 0;
    let mut decls: Vec<String> = Vec::new();
    let mut search = 0;
    while let Some(rel) = body[search..].find("__local") {
        let at = search + rel;
        search = at + "__local".len();
        // `__local T name[expr]` — a declaration, not a pointer parameter.
        let rest = &body[search..];
        let stmt_end = rest.find(';').unwrap_or(rest.len());
        let decl = &rest[..stmt_end];
        let Some(bo) = decl.find('[') else { continue };
        if decl[..bo].contains('*') {
            continue; // pointer, not a static array
        }
        let mut toks = decl.split_whitespace();
        let ty = toks.next().unwrap_or_default();
        let Some(elem) = type_size(ty) else { continue };
        let Some(bc) = matching(decl, bo, '[', ']') else {
            continue;
        };
        let Some(count) = eval_const(&decl[bo + 1..bc], defines) else {
            continue;
        };
        total += elem * count;
        decls.push(format!("{} ({} B)", decl.trim(), elem * count));
    }
    if total > local_mem_bytes {
        findings.push(LintFinding {
            rule: LintRule::LocalMemBudget,
            program: program.to_string(),
            kernel: k.name.clone(),
            message: format!(
                "__local declarations total {total} B, exceeding the device budget of \
                 {local_mem_bytes} B: {}",
                decls.join(", ")
            ),
        });
    }
}

fn type_size(ty: &str) -> Option<u64> {
    Some(match ty {
        "char" | "uchar" => 1,
        "short" | "ushort" | "half" => 2,
        "int" | "uint" | "float" => 4,
        "long" | "ulong" | "double" => 8,
        _ => return None,
    })
}

/// Evaluate a constant integer expression of literals, object-like
/// `#define` names, `+ - * / << >>` and parentheses. `None` if anything is
/// not statically known.
fn eval_const(expr: &str, defines: &HashMap<String, String>) -> Option<u64> {
    let mut toks = tokenize(expr, defines)?;
    toks.reverse(); // pop from the front
    let v = eval_sum(&mut toks)?;
    if toks.is_empty() {
        Some(v)
    } else {
        None
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Tok {
    Num(u64),
    Op(char),
    Shl,
    Shr,
    Open,
    Close,
}

fn tokenize(expr: &str, defines: &HashMap<String, String>) -> Option<Vec<Tok>> {
    let mut toks = Vec::new();
    let bytes = expr.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        if c.is_ascii_whitespace() {
            i += 1;
        } else if c.is_ascii_digit() {
            let s = i;
            while i < bytes.len() && bytes[i].is_ascii_alphanumeric() {
                i += 1;
            }
            let lit = expr[s..i].trim_end_matches(['u', 'U', 'l', 'L']);
            toks.push(Tok::Num(lit.parse().ok()?));
        } else if c.is_ascii_alphabetic() || c == b'_' {
            let s = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            let sub = defines.get(&expr[s..i])?;
            toks.push(Tok::Num(eval_const(sub, defines)?));
        } else if c == b'<' && bytes.get(i + 1) == Some(&b'<') {
            toks.push(Tok::Shl);
            i += 2;
        } else if c == b'>' && bytes.get(i + 1) == Some(&b'>') {
            toks.push(Tok::Shr);
            i += 2;
        } else if matches!(c, b'+' | b'-' | b'*' | b'/') {
            toks.push(Tok::Op(c as char));
            i += 1;
        } else if c == b'(' {
            toks.push(Tok::Open);
            i += 1;
        } else if c == b')' {
            toks.push(Tok::Close);
            i += 1;
        } else {
            return None;
        }
    }
    Some(toks)
}

fn eval_sum(toks: &mut Vec<Tok>) -> Option<u64> {
    let mut acc = eval_prod(toks)?;
    loop {
        match toks.last() {
            Some(Tok::Op('+')) => {
                toks.pop();
                acc = acc.checked_add(eval_prod(toks)?)?;
            }
            Some(Tok::Op('-')) => {
                toks.pop();
                acc = acc.checked_sub(eval_prod(toks)?)?;
            }
            Some(Tok::Shl) => {
                toks.pop();
                acc = acc.checked_shl(eval_prod(toks)? as u32)?;
            }
            Some(Tok::Shr) => {
                toks.pop();
                acc = acc.checked_shr(eval_prod(toks)? as u32)?;
            }
            _ => return Some(acc),
        }
    }
}

fn eval_prod(toks: &mut Vec<Tok>) -> Option<u64> {
    let mut acc = eval_atom(toks)?;
    loop {
        match toks.last() {
            Some(Tok::Op('*')) => {
                toks.pop();
                acc = acc.checked_mul(eval_atom(toks)?)?;
            }
            Some(Tok::Op('/')) => {
                toks.pop();
                let d = eval_atom(toks)?;
                acc = acc.checked_div(d)?;
            }
            _ => return Some(acc),
        }
    }
}

fn eval_atom(toks: &mut Vec<Tok>) -> Option<u64> {
    match toks.pop()? {
        Tok::Num(n) => Some(n),
        Tok::Open => {
            let v = eval_sum(toks)?;
            if toks.pop()? == Tok::Close {
                Some(v)
            } else {
                None
            }
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BUDGET: u64 = 16 << 10; // Tesla C1060 local memory

    /// A faithful mimic of the generated Reduce program: barriers only at
    /// work-group-uniform points, __local passed as a pointer parameter,
    /// every global access guarded. Must lint clean.
    const REDUCE_LIKE: &str = r#"
        // generated by SkelCL codegen: Reduce skeleton (local-memory tree)
        float sum(float x, float y) { return x + y; }
        __kernel void skelcl_reduce(__global const float* restrict in,
                                    __global float* restrict partials,
                                    const uint n,
                                    __local float* scratch) {
            uint gid = get_global_id(0);
            uint lid = get_local_id(0);
            uint group = get_group_id(0);
            uint lsize = get_local_size(0);
            scratch[lid] = (gid < n) ? in[gid] : (float)0;
            barrier(CLK_LOCAL_MEM_FENCE);
            for (uint s = lsize / 2; s > 0; s >>= 1) {
                if (lid < s) {
                    scratch[lid] = sum(scratch[lid], scratch[lid + s]);
                }
                barrier(CLK_LOCAL_MEM_FENCE);
            }
            if (lid == 0) partials[group] = scratch[0];
        }
    "#;

    #[test]
    fn the_generated_reduce_shape_is_clean() {
        let findings = lint_program("reduce", REDUCE_LIKE, 4, BUDGET);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn barrier_under_thread_divergent_branch_is_flagged() {
        // The classic broken tree reduction: the barrier moved inside the
        // `lid < s` branch, so work-items that skip the branch never reach
        // it.
        let bad = r#"
            __kernel void broken_reduce(__global const float* restrict in,
                                        __global float* restrict out,
                                        const uint n,
                                        __local float* scratch) {
                uint gid = get_global_id(0);
                uint lid = get_local_id(0);
                uint lsize = get_local_size(0);
                scratch[lid] = (gid < n) ? in[gid] : 0.0f;
                barrier(CLK_LOCAL_MEM_FENCE);
                for (uint s = lsize / 2; s > 0; s >>= 1) {
                    if (lid < s) {
                        scratch[lid] = scratch[lid] + scratch[lid + s];
                        barrier(CLK_LOCAL_MEM_FENCE);
                    }
                }
                if (lid == 0) out[get_group_id(0)] = scratch[0];
            }
        "#;
        let findings = lint_program("broken_reduce", bad, 4, BUDGET);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, LintRule::DivergentBarrier);
        assert_eq!(findings[0].kernel, "broken_reduce");
    }

    #[test]
    fn barrier_in_a_uniform_loop_is_not_divergent() {
        // get_local_size / get_group_id are uniform; loops over them must
        // not count as divergence (every real reduction iterates on lsize).
        let ok = r#"
            __kernel void k(__global float* restrict a, __local float* t) {
                uint lid = get_local_id(0);
                uint lsize = get_local_size(0);
                for (uint d = lsize; d > 0; d >>= 1) {
                    barrier(CLK_LOCAL_MEM_FENCE);
                    if (lid < d) { t[lid] = t[lid] + t[lid + d]; }
                }
            }
        "#;
        let findings = lint_program("k", ok, 2, BUDGET);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn oversized_local_array_exceeds_the_device_budget() {
        let bad = r#"
            __kernel void big_tile(__global const float* restrict in,
                                   __global float* restrict out,
                                   const uint n) {
                __local float tile[8192];
                uint gid = get_global_id(0);
                if (gid < n) out[gid] = in[gid] + tile[0];
            }
        "#;
        // 8192 floats = 32 KiB > 16 KiB.
        let findings = lint_program("big_tile", bad, 3, BUDGET);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, LintRule::LocalMemBudget);
        assert!(
            findings[0].message.contains("32768"),
            "{}",
            findings[0].message
        );
        // The same declaration fits a 64 KiB device.
        assert!(lint_program("big_tile", bad, 3, 64 << 10).is_empty());
    }

    #[test]
    fn define_driven_local_sizes_are_evaluated() {
        let src = r#"
            #define TILE 32
            __kernel void k(__global float* restrict out, const uint n) {
                __local float a[TILE * TILE];
                __local float b[TILE * TILE];
                uint gid = get_global_id(0);
                if (gid < n) out[gid] = a[0] + b[0];
            }
        "#;
        // 2 * 32*32 floats = 8 KiB: fits 16 KiB, busts 4 KiB.
        assert!(lint_program("k", src, 2, BUDGET).is_empty());
        let findings = lint_program("k", src, 2, 4 << 10);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, LintRule::LocalMemBudget);
    }

    #[test]
    fn host_side_arg_count_must_match_a_kernel_signature() {
        let findings = lint_program("reduce", REDUCE_LIKE, 5, BUDGET);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, LintRule::ArityMismatch);
        assert!(findings[0].message.contains("skelcl_reduce/4"));
    }

    #[test]
    fn multi_kernel_programs_match_either_signature() {
        // The Scan program carries two kernels (6 and 3 params); the host
        // marshals 6 for the block pass — that must satisfy the arity rule.
        let two = r#"
            __kernel void pass_a(__global float* a, __global float* b,
                                 __global float* c, const uint n,
                                 const float identity, __local float* t) {
                uint gid = get_global_id(0);
                if (gid < n) b[gid] = a[gid];
            }
            __kernel void pass_b(__global float* data, __global const float* offs,
                                 const uint n) {
                uint gid = get_global_id(0);
                if (gid < n) data[gid] = data[gid] + offs[get_group_id(0)];
            }
        "#;
        assert!(lint_program("scan", two, 6, BUDGET).is_empty());
        assert!(lint_program("scan", two, 3, BUDGET).is_empty());
        assert_eq!(lint_program("scan", two, 7, BUDGET).len(), 1);
    }

    #[test]
    fn unguarded_thread_indexed_global_access_is_flagged() {
        // The rounded-up NDRange means gid can exceed n: the template must
        // guard. This one dropped the `if (gid < n)`.
        let bad = r#"
            __kernel void unguarded_map(__global const float* restrict in,
                                        __global float* restrict out,
                                        const uint n) {
                uint gid = get_global_id(0);
                out[gid] = in[gid];
            }
        "#;
        let findings = lint_program("unguarded_map", bad, 3, BUDGET);
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings
            .iter()
            .all(|f| f.rule == LintRule::UnguardedGlobalAccess));
    }

    #[test]
    fn guarded_accesses_are_clean_in_both_if_and_ternary_form() {
        let ok = r#"
            __kernel void guarded(__global const float* restrict in,
                                  __global float* restrict out,
                                  const uint n,
                                  __local float* t) {
                uint gid = get_global_id(0);
                uint lid = get_local_id(0);
                t[lid] = (gid < n) ? in[gid] : 0.0f;
                if (gid < n) {
                    out[gid] = t[lid];
                }
            }
        "#;
        assert!(lint_program("guarded", ok, 4, BUDGET).is_empty());
    }

    #[test]
    fn uniform_indices_need_no_guard() {
        // Indexing by get_group_id is uniform; the linter only demands
        // guards for thread-id-derived indices.
        let ok = r#"
            __kernel void by_group(__global float* restrict sums, const uint n) {
                uint group = get_group_id(0);
                sums[group] = 1.0f;
            }
        "#;
        assert!(lint_program("by_group", ok, 2, BUDGET).is_empty());
    }

    #[test]
    fn non_kernel_helper_functions_are_not_linted() {
        // User functions are pasted verbatim and may index unguarded —
        // their parameters are host-controlled, not NDRange-derived.
        let src = r#"
            float blur3(__global float* in, uint i, uint n) {
                return (in[i-1] + in[i] + in[i+1]) / 3.0f;
            }
            __kernel void skelcl_map_overlap(__global const float* restrict in,
                                             __global float* restrict out,
                                             const uint n) {
                uint gid = get_global_id(0);
                if (gid < n) {
                    out[gid] = blur3(in, gid, n);
                }
            }
        "#;
        assert!(lint_program("map_overlap", src, 3, BUDGET).is_empty());
    }

    #[test]
    fn an_undeclared_subscript_index_is_flagged() {
        // A zip operand pasted from the element-wise template, whose index
        // `i` this fold kernel never declares.
        let bad = r#"
            float sum(float x, float y) { return x + y; }
            float add(float x, float y) { return x + y; }
            __kernel void fold(__global const float* restrict in,
                               __global const float* restrict op0,
                               __global float* restrict out,
                               const uint n_rows,
                               const uint n_cols) {
                uint row = get_global_id(0);
                if (row < n_rows) {
                    float acc = 0.0f;
                    for (uint c = 0; c < n_cols; ++c) {
                        acc = sum(acc, add(in[row * n_cols + c], op0[i]));
                    }
                    out[row] = acc;
                }
            }
        "#;
        let findings = lint_program("fold", bad, 5, BUDGET);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, LintRule::UndeclaredIdentifier);
        assert!(
            findings[0].message.starts_with("`i` "),
            "{}",
            findings[0].message
        );
        // Declared names pass: parameters, locals, defines, calls, casts.
        let ok = r#"
            #define TILE 4
            __kernel void k(__global float* restrict out, const uint n, __local float* t) {
                uint gid = get_global_id(0);
                t[get_local_id(0) % TILE] = 0.0f;
                for (uint j = 0; j < TILE; ++j) {
                    if (gid < n) out[(int)gid * 1u + j % (uint)n] = t[j];
                }
            }
        "#;
        assert!(lint_program("k", ok, 3, BUDGET).is_empty());
    }

    #[test]
    fn a_call_to_a_function_nothing_defines_is_flagged() {
        let program = r#"
            #define AT(dr, dc) in[dc]
            inline float helper(__global const float* in, int c) { return AT(0, c); }
            float twice(float x) { return 2.0f * x; }
            fn scale(x: f32) -> f32 { x * 0.5 }
            __kernel void k(__global const float* restrict in,
                            __global float* restrict out, const uint n) {
                uint i = get_global_id(0);
                if (i < n) {
                    float v = helper(in, (int)i) + scale(twice(sqrt(fabs(in[i]))));
                    out[i] = pair_a_b(v, convert_float(i)) + AT(0, 0);
                }
                barrier(CLK_LOCAL_MEM_FENCE);
            }
        "#;
        let findings = lint_program("k", program, 3, BUDGET);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, LintRule::UndefinedFunction);
        assert!(
            findings[0].message.starts_with("`pair_a_b(…)` "),
            "{}",
            findings[0].message
        );
        let defined = program.replace(
            "fn scale",
            "float pair_a_b(float x, float y) { return x + y; }\nfn scale",
        );
        assert!(lint_program("k", &defined, 3, BUDGET).is_empty());
    }

    #[test]
    fn taint_propagates_through_assignment_chains() {
        let bad = r#"
            __kernel void chained(__global float* restrict out, const uint n_cols) {
                uint col = get_global_id(0);
                uint row = get_global_id(1);
                uint i = row * n_cols + col;
                out[i] = 1.0f;
            }
        "#;
        let findings = lint_program("chained", bad, 2, BUDGET);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, LintRule::UnguardedGlobalAccess);
    }
}
