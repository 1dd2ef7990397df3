//! Code generation: AST → PXVM-32, including the three instrumentation
//! passes the paper requires from the compiler:
//!
//! * **variable fixing** (§4.4) — predicated fix instructions at the head of
//!   both edges of every conditional branch, pinning simple condition
//!   variables to boundary values (or to the per-type *blank data structure*
//!   for pointer conditions);
//! * **CCured-style checking** — bounds checks on known-size array accesses
//!   and null checks on pointer dereferences, emitted as `check` probes
//!   inside tagged checker regions;
//! * **iWatcher-style monitoring** — red zones after every array plus
//!   `watch` registrations so overruns trip hardware watchpoints.

use std::collections::HashMap;

use px_isa::{
    AluOp, BranchCond, CheckKind, Instruction, Program, ProgramBuilder, Reg, SyscallCode, Width,
    DATA_BASE,
};

use crate::ast::{BinOp, Expr, ExprKind, FuncDef, Stmt, StmtKind, Type, UnOp, Unit};
use crate::types::{align_up, cerr, CompileError, TypeTable};

/// Red-zone size after each array when `iwatcher` is on.
const REDZONE_BYTES: u32 = 16;

/// How fix values are chosen for inequality conditions (ablation D4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FixStrategy {
    /// Fix to exactly the boundary value (the paper's choice).
    Boundary,
    /// Fix to a random value satisfying the condition (seeded, compile-time).
    RandomSatisfying {
        /// Deterministic seed.
        seed: u64,
    },
}

/// Compilation options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileOptions {
    /// Insert the §4.4 predicated variable-fixing instructions.
    pub insert_fixes: bool,
    /// Fix-value selection strategy.
    pub fix_strategy: FixStrategy,
    /// Insert CCured-style bounds / null checks.
    pub ccured: bool,
    /// Insert iWatcher-style red zones and watch registrations.
    pub iwatcher: bool,
}

impl Default for CompileOptions {
    fn default() -> CompileOptions {
        CompileOptions {
            insert_fixes: true,
            fix_strategy: FixStrategy::Boundary,
            ccured: false,
            iwatcher: false,
        }
    }
}

impl CompileOptions {
    /// Options for a CCured-monitored build.
    #[must_use]
    pub fn ccured() -> CompileOptions {
        CompileOptions {
            ccured: true,
            ..CompileOptions::default()
        }
    }

    /// Options for an iWatcher-monitored build.
    #[must_use]
    pub fn iwatcher() -> CompileOptions {
        CompileOptions {
            iwatcher: true,
            ..CompileOptions::default()
        }
    }

    /// Options for an assertions-only build.
    #[must_use]
    pub fn assertions() -> CompileOptions {
        CompileOptions::default()
    }
}

/// A `check` site emitted by the compiler, for mapping reports back to
/// source constructs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteInfo {
    /// Site identifier carried by the `check` instruction.
    pub id: u32,
    /// Checker kind.
    pub kind: CheckKind,
    /// 1-based source line.
    pub line: u32,
    /// Enclosing function.
    pub func: String,
}

/// A watch tag registered by the iWatcher pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WatchInfo {
    /// Tag carried by watch hits.
    pub tag: u32,
    /// The guarded array's name.
    pub array: String,
    /// Declaration line.
    pub line: u32,
    /// Enclosing function (`None` for globals).
    pub func: Option<String>,
}

/// A compiled PXC program plus instrumentation metadata.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    /// The runnable program.
    pub program: Program,
    /// All `check` sites (assertions, CCured checks).
    pub sites: Vec<SiteInfo>,
    /// All iWatcher watch registrations.
    pub watches: Vec<WatchInfo>,
    /// Refittable §4.4 fix instructions (see [`crate::refit_fixes`]).
    pub fix_sites: Vec<FixSite>,
}

impl CompiledProgram {
    /// Finds the site id of the check at a source line (first match).
    #[must_use]
    pub fn site_at_line(&self, line: u32) -> Option<u32> {
        self.sites.iter().find(|s| s.line == line).map(|s| s.id)
    }

    /// Finds the watch tag guarding a named array (first match).
    #[must_use]
    pub fn watch_tag_for(&self, array: &str) -> Option<u32> {
        self.watches
            .iter()
            .find(|w| w.array == array)
            .map(|w| w.tag)
    }
}

/// Compiles a parsed unit.
///
/// # Errors
///
/// Returns the first type or codegen error.
pub fn compile_unit(unit: &Unit, opts: &CompileOptions) -> Result<CompiledProgram, CompileError> {
    Cg::new(unit, opts)?.run()
}

// ---------------------------------------------------------------------------

const TEMP_BASE: u8 = 8;
const TEMP_COUNT: u8 = 20;
/// Scratch register reserved for fix values and the epilogue.
const SCRATCH: Reg = Reg::new(4);
/// Second scratch register (watch-registration lengths).
const SCRATCH2: Reg = Reg::new(5);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Label(usize);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Base {
    /// fp-relative (locals, parameters).
    Fp,
    /// Absolute address (globals); offset holds the address.
    Abs,
}

#[derive(Debug, Clone)]
enum Place {
    Mem { base: Base, offset: i32, ty: Type },
    Indirect { addr: Reg, ty: Type },
}

impl Place {
    fn ty(&self) -> &Type {
        match self {
            Place::Mem { ty, .. } | Place::Indirect { ty, .. } => ty,
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum FixValue {
    Const(i32),
    /// `other_reg + delta` (for variable-vs-variable comparisons).
    Rel {
        other: Reg,
        delta: i32,
    },
}

/// Which branch operand a fix site pins (for value-profile refitting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OperandSide {
    /// The branch instruction's first operand.
    Lhs,
    /// The branch instruction's second operand.
    Rhs,
}

/// Metadata for one refittable fix instruction: an integer condition
/// variable pinned against a literal. Profile-guided refitting
/// ([`crate::refit_fixes`]) may replace the boundary value with one inside
/// the variable's observed range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FixSite {
    /// Instruction index of the `PMovI` fix.
    pub fix_pc: u32,
    /// Instruction index of the branch the fix belongs to.
    pub branch_pc: u32,
    /// Which branch operand holds the fixed variable.
    pub side: OperandSide,
    /// The comparison, as seen from the fixed variable's side.
    pub op: BinOp,
    /// The semantic outcome this edge corresponds to.
    pub want: bool,
    /// Whether this fix sits on the branch instruction's *taken* edge (the
    /// profile conditions observations on the dynamic outcome).
    pub taken_when: bool,
    /// The literal the variable is compared against.
    pub literal: i32,
}

#[derive(Debug, Clone, Copy)]
struct RefitMeta {
    side: OperandSide,
    op: BinOp,
    want: bool,
    literal: i32,
}

#[derive(Debug, Clone)]
struct FixAction {
    value: FixValue,
    home_base: Base,
    home_offset: i32,
    width: Width,
    refit: Option<RefitMeta>,
}

struct FnState {
    name: String,
    ret: Type,
    scopes: Vec<HashMap<String, (i32, Type)>>,
    next_local: i32,
    frame_patch: u32,
    epilogue: Label,
    breaks: Vec<Label>,
    continues: Vec<Label>,
    local_watch_tags: Vec<u32>,
}

struct Cg<'a> {
    unit: &'a Unit,
    types: TypeTable,
    opts: &'a CompileOptions,
    b: ProgramBuilder,
    label_pcs: Vec<Option<u32>>,
    fixups: Vec<(u32, Label)>,
    data: Vec<u8>,
    globals: HashMap<String, (u32, Type)>,
    func_labels: HashMap<String, (Label, Type, Vec<Type>)>,
    blanks: HashMap<String, u32>,
    blank_area: (u32, u32),
    heap_ptr_addr: u32,
    sites: Vec<SiteInfo>,
    watches: Vec<WatchInfo>,
    fix_sites: Vec<FixSite>,
    global_watches: Vec<(u32, u32, u32)>, // (addr, len, tag)
    temp_depth: u8,
    rng: u64,
    f: Option<FnState>,
    cur_line: u32,
}

impl<'a> Cg<'a> {
    fn new(unit: &'a Unit, opts: &'a CompileOptions) -> Result<Cg<'a>, CompileError> {
        let types = TypeTable::build(&unit.structs)?;
        let rng = match opts.fix_strategy {
            FixStrategy::Boundary => 0x243F_6A88_85A3_08D3,
            FixStrategy::RandomSatisfying { seed } => seed | 1,
        };
        Ok(Cg {
            unit,
            types,
            opts,
            b: ProgramBuilder::new(),
            label_pcs: Vec::new(),
            fixups: Vec::new(),
            data: Vec::new(),
            globals: HashMap::new(),
            func_labels: HashMap::new(),
            blanks: HashMap::new(),
            blank_area: (0, 0),
            heap_ptr_addr: 0,
            sites: Vec::new(),
            watches: Vec::new(),
            fix_sites: Vec::new(),
            global_watches: Vec::new(),
            temp_depth: 0,
            rng,
            f: None,
            cur_line: 0,
        })
    }

    // ---- small emission helpers ----

    fn emit(&mut self, insn: Instruction) -> u32 {
        self.b.push(insn, self.cur_line)
    }

    fn li(&mut self, rd: Reg, imm: i32) {
        self.emit(Instruction::AluI {
            op: AluOp::Add,
            rd,
            rs1: Reg::ZERO,
            imm,
        });
    }

    fn mv(&mut self, rd: Reg, rs: Reg) {
        self.emit(Instruction::AluI {
            op: AluOp::Add,
            rd,
            rs1: rs,
            imm: 0,
        });
    }

    fn new_label(&mut self) -> Label {
        self.label_pcs.push(None);
        Label(self.label_pcs.len() - 1)
    }

    fn bind(&mut self, l: Label) {
        debug_assert!(self.label_pcs[l.0].is_none(), "label bound twice");
        self.label_pcs[l.0] = Some(self.b.next_pc());
    }

    fn emit_jump(&mut self, l: Label) {
        let pc = self.emit(Instruction::Jump { target: 0 });
        self.fixups.push((pc, l));
    }

    fn emit_branch(&mut self, cond: BranchCond, rs1: Reg, rs2: Reg, l: Label) {
        let pc = self.emit(Instruction::Branch {
            cond,
            rs1,
            rs2,
            target: 0,
        });
        self.fixups.push((pc, l));
    }

    fn emit_call(&mut self, l: Label) {
        let pc = self.emit(Instruction::Call { target: 0 });
        self.fixups.push((pc, l));
    }

    fn alloc_temp(&mut self) -> Result<Reg, CompileError> {
        if self.temp_depth >= TEMP_COUNT {
            return cerr(
                self.cur_line,
                "expression too complex (temporary registers exhausted)",
            );
        }
        let r = Reg::new(TEMP_BASE + self.temp_depth);
        self.temp_depth += 1;
        Ok(r)
    }

    fn free_temp(&mut self, r: Reg) {
        debug_assert_eq!(
            r.index(),
            usize::from(TEMP_BASE + self.temp_depth - 1),
            "temporaries must be freed LIFO"
        );
        self.temp_depth -= 1;
    }

    fn live_temps(&self) -> Vec<Reg> {
        (0..self.temp_depth)
            .map(|i| Reg::new(TEMP_BASE + i))
            .collect()
    }

    fn next_rand(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn new_site(&mut self, kind: CheckKind, line: u32) -> u32 {
        let id = self.sites.len() as u32 + 1;
        let func = self.f.as_ref().map_or_else(String::new, |f| f.name.clone());
        self.sites.push(SiteInfo {
            id,
            kind,
            line,
            func,
        });
        id
    }

    // ---- data layout ----

    fn data_addr(&self) -> u32 {
        DATA_BASE + self.data.len() as u32
    }

    fn push_data(&mut self, bytes: &[u8]) -> u32 {
        let addr = self.data_addr();
        self.data.extend_from_slice(bytes);
        addr
    }

    fn align_data(&mut self, align: u32) {
        while !(self.data.len() as u32).is_multiple_of(align) {
            self.data.push(0);
        }
    }

    fn layout_globals(&mut self) -> Result<(), CompileError> {
        // Heap pointer word first (patched after full layout).
        self.align_data(4);
        self.heap_ptr_addr = self.push_data(&[0; 4]);
        self.globals
            .insert("__heap".to_owned(), (self.heap_ptr_addr, Type::Int));

        for g in &self.unit.globals {
            let size = self.types.size_of(&g.ty).map_err(|m| CompileError {
                line: g.line,
                message: format!("global `{}`: {m}", g.name),
            })?;
            self.align_data(self.types.align_of(&g.ty).max(4));
            let addr = self.data_addr();
            let mut bytes = vec![0u8; size as usize];
            if let Some(v) = g.init {
                match g.ty {
                    Type::Char => bytes[0] = v as u8,
                    _ => bytes[0..4].copy_from_slice(&(v as i32).to_le_bytes()),
                }
            }
            if !g.array_init.is_empty() {
                let Type::Array(ref elem, n) = g.ty else {
                    return cerr(g.line, "array initializer on a non-array global");
                };
                if g.array_init.len() as u32 > n {
                    return cerr(g.line, "too many array initializers");
                }
                let esz = self.types.size_of(elem).expect("sized") as usize;
                for (i, &v) in g.array_init.iter().enumerate() {
                    match esz {
                        1 => bytes[i] = v as u8,
                        _ => bytes[i * 4..i * 4 + 4].copy_from_slice(&(v as i32).to_le_bytes()),
                    }
                }
            }
            if self.globals.contains_key(&g.name) {
                return cerr(g.line, format!("duplicate global `{}`", g.name));
            }
            self.push_data(&bytes);
            self.globals.insert(g.name.clone(), (addr, g.ty.clone()));
            self.b.define_global(&g.name, addr, size);

            // iWatcher: red zone after every global array.
            if self.opts.iwatcher && matches!(g.ty, Type::Array(..)) {
                let zone = vec![0u8; REDZONE_BYTES as usize];
                let zone_addr = self.push_data(&zone);
                let tag = self.watches.len() as u32 + 1;
                self.watches.push(WatchInfo {
                    tag,
                    array: g.name.clone(),
                    line: g.line,
                    func: None,
                });
                self.global_watches.push((zone_addr, REDZONE_BYTES, tag));
            }
        }

        // Blank data structures for pointer fixing (paper §4.4).
        self.align_data(4);
        let blank_start = self.data_addr();
        for name in self.types.struct_names() {
            let size = self.types.layout(&name).expect("listed").size;
            let addr = self.push_data(&vec![0u8; size.max(4) as usize]);
            self.blanks.insert(name.clone(), addr);
            self.align_data(4);
        }
        let int_blank = self.push_data(&[0u8; 64]);
        self.blanks.insert("__int".to_owned(), int_blank);
        let char_blank = self.push_data(&[0u8; 64]);
        self.blanks.insert("__char".to_owned(), char_blank);
        self.blank_area = (blank_start, self.data_addr());
        Ok(())
    }

    fn blank_addr_for(&self, pointee: &Type) -> u32 {
        match pointee {
            Type::Struct(name) => self.blanks.get(name).copied().unwrap_or(self.blank_area.0),
            Type::Char => self.blanks["__char"],
            _ => self.blanks["__int"],
        }
    }

    // ---- top-level driver ----

    fn run(mut self) -> Result<CompiledProgram, CompileError> {
        self.layout_globals()?;

        // Pre-declare function labels.
        for f in &self.unit.funcs {
            if self.func_labels.contains_key(&f.name) {
                return cerr(f.line, format!("duplicate function `{}`", f.name));
            }
            let label = self.new_label();
            let params = f.params.iter().map(|p| p.ty.clone()).collect();
            self.func_labels
                .insert(f.name.clone(), (label, f.ret.clone(), params));
        }
        if !self.func_labels.contains_key("main") {
            return cerr(0, "no `main` function");
        }

        // __start: register global watches, call main, exit with its result.
        let start_pc = self.b.next_pc();
        let global_watches = std::mem::take(&mut self.global_watches);
        for (addr, len, tag) in global_watches {
            self.li(SCRATCH, addr as i32);
            self.li(SCRATCH2, len as i32);
            self.emit(Instruction::SetWatch {
                base: SCRATCH,
                len: SCRATCH2,
                tag,
            });
        }
        let main_label = self.func_labels["main"].0;
        self.emit_call(main_label);
        self.mv(Reg::A0, Reg::RV);
        self.emit(Instruction::Syscall {
            code: SyscallCode::Exit,
        });

        for f in &self.unit.funcs {
            self.gen_function(f)?;
        }

        // Resolve labels.
        for (pc, label) in std::mem::take(&mut self.fixups) {
            let Some(target) = self.label_pcs[label.0] else {
                return cerr(0, "internal error: unbound label");
            };
            let insn = match self.b.at(pc) {
                Instruction::Jump { .. } => Instruction::Jump { target },
                Instruction::Call { .. } => Instruction::Call { target },
                Instruction::Branch { cond, rs1, rs2, .. } => Instruction::Branch {
                    cond,
                    rs1,
                    rs2,
                    target,
                },
                other => other,
            };
            self.b.patch(pc, insn);
        }

        // Heap base = end of data, 4-aligned.
        self.align_data(4);
        let heap_base = self.data_addr();
        let off = (self.heap_ptr_addr - DATA_BASE) as usize;
        self.data[off..off + 4].copy_from_slice(&(heap_base as i32).to_le_bytes());

        let data = std::mem::take(&mut self.data);
        self.b.add_data(DATA_BASE, data);
        self.b.set_heap_base(heap_base);
        self.b.set_entry(start_pc);
        self.b.set_blank_area(self.blank_area.0, self.blank_area.1);
        self.b.define_function("__start", start_pc);

        let program = self.b.finish();
        Ok(CompiledProgram {
            program,
            sites: self.sites,
            watches: self.watches,
            fix_sites: self.fix_sites,
        })
    }

    // ---- functions ----

    fn gen_function(&mut self, f: &FuncDef) -> Result<(), CompileError> {
        self.cur_line = f.line;
        let (label, ret, _) = self.func_labels[&f.name].clone();
        self.bind(label);
        self.b.define_function(&f.name, self.b.next_pc());

        // Prologue.
        self.emit(Instruction::AluI {
            op: AluOp::Sub,
            rd: Reg::SP,
            rs1: Reg::SP,
            imm: 8,
        });
        self.emit(Instruction::Store {
            width: Width::Word,
            rs: Reg::RA,
            base: Reg::SP,
            offset: 4,
        });
        self.emit(Instruction::Store {
            width: Width::Word,
            rs: Reg::FP,
            base: Reg::SP,
            offset: 0,
        });
        self.emit(Instruction::AluI {
            op: AluOp::Add,
            rd: Reg::FP,
            rs1: Reg::SP,
            imm: 8,
        });
        let frame_patch = self.emit(Instruction::AluI {
            op: AluOp::Sub,
            rd: Reg::SP,
            rs1: Reg::SP,
            imm: 0,
        });

        let epilogue = self.new_label();
        let mut scope = HashMap::new();
        for (i, p) in f.params.iter().enumerate() {
            if !p.ty.is_scalar() {
                return cerr(f.line, format!("parameter `{}` must be scalar", p.name));
            }
            scope.insert(p.name.clone(), (i as i32 * 4, p.ty.clone()));
        }
        self.f = Some(FnState {
            name: f.name.clone(),
            ret,
            scopes: vec![scope],
            next_local: -8,
            frame_patch,
            epilogue,
            breaks: Vec::new(),
            continues: Vec::new(),
            local_watch_tags: Vec::new(),
        });

        self.gen_block(&f.body)?;

        // Epilogue: default return value 0, clear local watches, unwind.
        self.li(Reg::RV, 0);
        self.bind(epilogue);
        let state = self.f.as_ref().expect("in function");
        let tags = state.local_watch_tags.clone();
        for tag in tags {
            self.emit(Instruction::ClearWatch { tag });
        }
        self.emit(Instruction::Load {
            width: Width::Word,
            rd: Reg::RA,
            base: Reg::FP,
            offset: -4,
        });
        self.mv(SCRATCH, Reg::FP);
        self.emit(Instruction::Load {
            width: Width::Word,
            rd: Reg::FP,
            base: Reg::FP,
            offset: -8,
        });
        self.mv(Reg::SP, SCRATCH);
        self.emit(Instruction::Ret);

        // Patch the frame-allocation instruction with the final local size.
        let state = self.f.take().expect("in function");
        let locals_bytes = align_up((-(state.next_local + 8)).max(0) as u32, 4);
        self.b.patch(
            state.frame_patch,
            Instruction::AluI {
                op: AluOp::Sub,
                rd: Reg::SP,
                rs1: Reg::SP,
                imm: locals_bytes as i32,
            },
        );
        debug_assert_eq!(self.temp_depth, 0, "temps leaked in `{}`", f.name);
        Ok(())
    }

    fn fstate(&mut self) -> &mut FnState {
        self.f.as_mut().expect("inside a function")
    }

    fn lookup_var(&self, name: &str) -> Option<Place> {
        if let Some(f) = &self.f {
            for scope in f.scopes.iter().rev() {
                if let Some((offset, ty)) = scope.get(name) {
                    return Some(Place::Mem {
                        base: Base::Fp,
                        offset: *offset,
                        ty: ty.clone(),
                    });
                }
            }
        }
        self.globals.get(name).map(|(addr, ty)| Place::Mem {
            base: Base::Abs,
            offset: *addr as i32,
            ty: ty.clone(),
        })
    }

    // ---- statements ----

    fn gen_block(&mut self, stmts: &[Stmt]) -> Result<(), CompileError> {
        self.fstate().scopes.push(HashMap::new());
        for s in stmts {
            self.gen_stmt(s)?;
        }
        self.fstate().scopes.pop();
        Ok(())
    }

    #[allow(clippy::too_many_lines)]
    fn gen_stmt(&mut self, s: &Stmt) -> Result<(), CompileError> {
        self.cur_line = s.line;
        match &s.kind {
            StmtKind::Block(body) => self.gen_block(body)?,
            StmtKind::Decl { name, ty, init } => {
                let size = self.types.size_of(ty).map_err(|m| CompileError {
                    line: s.line,
                    message: format!("local `{name}`: {m}"),
                })?;
                let is_array = matches!(ty, Type::Array(..));
                let mut alloc_size = align_up(size, 4);
                if is_array && self.opts.iwatcher {
                    alloc_size += align_up(REDZONE_BYTES, 4);
                }
                let f = self.fstate();
                f.next_local -= alloc_size as i32;
                let offset = f.next_local;
                let scope = f.scopes.last_mut().expect("scope");
                if scope.insert(name.clone(), (offset, ty.clone())).is_some() {
                    return cerr(s.line, format!("duplicate local `{name}`"));
                }

                if is_array && self.opts.iwatcher {
                    let tag = self.watches.len() as u32 + 1;
                    let func = self.fstate().name.clone();
                    self.watches.push(WatchInfo {
                        tag,
                        array: name.clone(),
                        line: s.line,
                        func: Some(func),
                    });
                    self.fstate().local_watch_tags.push(tag);
                    let zone_off = offset + size as i32;
                    self.emit(Instruction::AluI {
                        op: AluOp::Add,
                        rd: SCRATCH,
                        rs1: Reg::FP,
                        imm: zone_off,
                    });
                    self.li(SCRATCH2, REDZONE_BYTES as i32);
                    self.emit(Instruction::SetWatch {
                        base: SCRATCH,
                        len: SCRATCH2,
                        tag,
                    });
                }

                if let Some(e) = init {
                    if is_array {
                        return cerr(s.line, "array locals cannot have initializers");
                    }
                    let (r, _vt) = self.gen_expr(e)?;
                    let width = if *ty == Type::Char {
                        Width::Byte
                    } else {
                        Width::Word
                    };
                    self.emit(Instruction::Store {
                        width,
                        rs: r,
                        base: Reg::FP,
                        offset,
                    });
                    self.free_temp(r);
                }
            }
            StmtKind::Assign { target, value } => {
                let (vr, _vt) = self.gen_expr(value)?;
                let place = self.gen_lvalue(target)?;
                self.store_place(&place, vr, s.line)?;
                if let Place::Indirect { addr, .. } = place {
                    self.free_temp(addr);
                }
                self.free_temp(vr);
            }
            StmtKind::Expr(e) => {
                if let ExprKind::Call(name, args) = &e.kind {
                    if let Some(r) = self.gen_call(name, args, e.line, true)? {
                        self.free_temp(r);
                    }
                } else {
                    let (r, _) = self.gen_expr(e)?;
                    self.free_temp(r);
                }
            }
            StmtKind::If {
                cond,
                then_body,
                else_body,
            } => {
                let l_then = self.new_label();
                let l_end = self.new_label();
                if else_body.is_empty() {
                    self.branch_true(cond, l_then)?;
                    self.emit_jump(l_end);
                    self.bind(l_then);
                    self.gen_block(then_body)?;
                } else {
                    self.branch_true(cond, l_then)?;
                    self.gen_block(else_body)?;
                    self.emit_jump(l_end);
                    self.bind(l_then);
                    self.gen_block(then_body)?;
                }
                self.bind(l_end);
            }
            StmtKind::While { cond, body } => {
                let l_cond = self.new_label();
                let l_body = self.new_label();
                let l_end = self.new_label();
                self.bind(l_cond);
                self.branch_true(cond, l_body)?;
                self.emit_jump(l_end);
                self.bind(l_body);
                self.fstate().breaks.push(l_end);
                self.fstate().continues.push(l_cond);
                self.gen_block(body)?;
                self.fstate().breaks.pop();
                self.fstate().continues.pop();
                self.emit_jump(l_cond);
                self.bind(l_end);
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                if let Some(init) = init {
                    self.gen_stmt(init)?;
                }
                let l_cond = self.new_label();
                let l_body = self.new_label();
                let l_step = self.new_label();
                let l_end = self.new_label();
                self.bind(l_cond);
                match cond {
                    Some(c) => {
                        self.branch_true(c, l_body)?;
                        self.emit_jump(l_end);
                    }
                    None => self.emit_jump(l_body),
                }
                self.bind(l_body);
                self.fstate().breaks.push(l_end);
                self.fstate().continues.push(l_step);
                self.gen_block(body)?;
                self.fstate().breaks.pop();
                self.fstate().continues.pop();
                self.bind(l_step);
                if let Some(step) = step {
                    self.gen_stmt(step)?;
                }
                self.emit_jump(l_cond);
                self.bind(l_end);
            }
            StmtKind::Return(value) => {
                if let Some(e) = value {
                    let (r, _) = self.gen_expr(e)?;
                    self.mv(Reg::RV, r);
                    self.free_temp(r);
                } else if self.fstate().ret != Type::Void {
                    self.li(Reg::RV, 0);
                }
                let ep = self.fstate().epilogue;
                self.emit_jump(ep);
            }
            StmtKind::Break => {
                let Some(&l) = self.fstate().breaks.last() else {
                    return cerr(s.line, "`break` outside a loop");
                };
                self.emit_jump(l);
            }
            StmtKind::Continue => {
                let Some(&l) = self.fstate().continues.last() else {
                    return cerr(s.line, "`continue` outside a loop");
                };
                self.emit_jump(l);
            }
        }
        Ok(())
    }

    // ---- conditions with fix insertion ----

    fn branch_true(&mut self, e: &Expr, l_true: Label) -> Result<(), CompileError> {
        match &e.kind {
            ExprKind::Bin(BinOp::LogAnd, a, b) => {
                let skip = self.new_label();
                self.branch_false(a, skip)?;
                self.branch_true(b, l_true)?;
                self.bind(skip);
                Ok(())
            }
            ExprKind::Bin(BinOp::LogOr, a, b) => {
                self.branch_true(a, l_true)?;
                self.branch_true(b, l_true)
            }
            ExprKind::Bin(op, a, b) if op.is_comparison() => {
                self.primitive_branch(*op, a, b, true, l_true, e.line)
            }
            ExprKind::Un(UnOp::Not, x) => self.branch_false(x, l_true),
            _ => {
                // Truthiness: e != 0.
                let zero = Expr {
                    kind: ExprKind::Int(0),
                    line: e.line,
                };
                self.primitive_branch(BinOp::Ne, e, &zero, true, l_true, e.line)
            }
        }
    }

    fn branch_false(&mut self, e: &Expr, l_false: Label) -> Result<(), CompileError> {
        match &e.kind {
            ExprKind::Bin(BinOp::LogAnd, a, b) => {
                self.branch_false(a, l_false)?;
                self.branch_false(b, l_false)
            }
            ExprKind::Bin(BinOp::LogOr, a, b) => {
                let skip = self.new_label();
                self.branch_true(a, skip)?;
                self.branch_false(b, l_false)?;
                self.bind(skip);
                Ok(())
            }
            ExprKind::Bin(op, a, b) if op.is_comparison() => {
                self.primitive_branch(*op, a, b, false, l_false, e.line)
            }
            ExprKind::Un(UnOp::Not, x) => self.branch_true(x, l_false),
            _ => {
                let zero = Expr {
                    kind: ExprKind::Int(0),
                    line: e.line,
                };
                self.primitive_branch(BinOp::Ne, e, &zero, false, l_false, e.line)
            }
        }
    }

    /// Emits one conditional branch for `lhs OP rhs`; jumps to `target` when
    /// the comparison equals `jump_if`, and plants predicated fix
    /// instructions at the head of both edges.
    fn primitive_branch(
        &mut self,
        op: BinOp,
        lhs: &Expr,
        rhs: &Expr,
        jump_if: bool,
        target: Label,
        line: u32,
    ) -> Result<(), CompileError> {
        let (ra, ta) = self.gen_expr(lhs)?;
        let (rb, tb) = self.gen_expr(rhs)?;
        let mut bc = comparison_cond(op);
        if !jump_if {
            bc = bc.negate();
        }

        let fix_true = self.fix_plan(op, lhs, &ta, ra, rhs, &tb, rb, true);
        let fix_false = self.fix_plan(op, lhs, &ta, ra, rhs, &tb, rb, false);
        let (fix_taken, fix_fall) = if jump_if {
            (fix_true, fix_false)
        } else {
            (fix_false, fix_true)
        };

        if self.opts.insert_fixes && (fix_taken.is_some() || fix_fall.is_some()) {
            let pad = self.new_label();
            let cont = self.new_label();
            self.cur_line = line;
            let branch_pc = self.b.next_pc();
            self.emit_branch(bc, ra, rb, pad);
            self.emit_fix(fix_fall, branch_pc, false);
            self.emit_jump(cont);
            self.bind(pad);
            self.emit_fix(fix_taken, branch_pc, true);
            self.emit_jump(target);
            self.bind(cont);
        } else {
            self.cur_line = line;
            self.emit_branch(bc, ra, rb, target);
        }
        self.free_temp(rb);
        self.free_temp(ra);
        Ok(())
    }

    /// Computes how to fix a simple condition variable so the comparison's
    /// value is `want` (paper §4.4). Returns `None` when neither side is a
    /// fixable simple variable.
    #[allow(clippy::too_many_arguments)]
    fn fix_plan(
        &mut self,
        op: BinOp,
        lhs: &Expr,
        ta: &Type,
        _ra: Reg,
        rhs: &Expr,
        tb: &Type,
        rb: Reg,
        want: bool,
    ) -> Option<FixAction> {
        // Try the left side first, then the mirrored comparison.
        if let Some(action) = self.fix_side(op, lhs, ta, rhs, rb, want, OperandSide::Lhs) {
            return Some(action);
        }
        let mirrored = mirror(op);
        if let Some(action) = self.fix_side(mirrored, rhs, tb, lhs, _ra, want, OperandSide::Rhs) {
            return Some(action);
        }
        None
    }

    /// Fix `var OP other` to have value `want`, where `var` must be a simple
    /// scalar variable with a memory home.
    #[allow(clippy::too_many_arguments)]
    fn fix_side(
        &mut self,
        op: BinOp,
        var: &Expr,
        var_ty: &Type,
        other: &Expr,
        other_reg: Reg,
        want: bool,
        side: OperandSide,
    ) -> Option<FixAction> {
        let ExprKind::Var(name) = &var.kind else {
            return None;
        };
        if !var_ty.is_scalar() {
            return None;
        }
        let Some(Place::Mem { base, offset, ty }) = self.lookup_var(name) else {
            return None;
        };
        let width = if ty == Type::Char {
            Width::Byte
        } else {
            Width::Word
        };

        // Pointer-vs-null: the non-null edge points at the blank structure.
        if let Type::Ptr(pointee) = &ty {
            if let ExprKind::Int(0) = other.kind {
                if matches!(op, BinOp::Eq | BinOp::Ne) {
                    let nonnull_when = matches!(op, BinOp::Ne) == want;
                    let value = if nonnull_when {
                        self.blank_addr_for(pointee) as i32
                    } else {
                        0
                    };
                    return Some(FixAction {
                        value: FixValue::Const(value),
                        home_base: base,
                        home_offset: offset,
                        width,
                        refit: None, // pointer fixes are never refitted
                    });
                }
            }
        }

        let jitter = match self.opts.fix_strategy {
            FixStrategy::Boundary => 0,
            FixStrategy::RandomSatisfying { .. } => (self.next_rand() % 8) as i32,
        };
        let delta = boundary_delta(op, want)?;
        // Apply jitter away from the boundary in the satisfying direction
        // (equality fixes admit no jitter).
        let delta = match (op, want) {
            (BinOp::Eq, true) | (BinOp::Ne, false) => delta,
            _ => {
                if delta <= boundary_delta(op, want).unwrap_or(0) && jitter != 0 {
                    // Move further into the satisfying half-space.
                    let dir = satisfying_direction(op, want);
                    delta + dir * jitter
                } else {
                    delta
                }
            }
        };

        let (value, refit) = match other.kind {
            ExprKind::Int(k) => (
                FixValue::Const((k as i32).wrapping_add(delta)),
                Some(RefitMeta {
                    side,
                    op,
                    want,
                    literal: k as i32,
                }),
            ),
            _ => (
                FixValue::Rel {
                    other: other_reg,
                    delta,
                },
                None,
            ),
        };
        Some(FixAction {
            value,
            home_base: base,
            home_offset: offset,
            width,
            refit,
        })
    }

    fn emit_fix(&mut self, plan: Option<FixAction>, branch_pc: u32, taken_when: bool) {
        let Some(plan) = plan else { return };
        let fix_pc = match plan.value {
            FixValue::Const(v) => self.emit(Instruction::PMovI {
                rd: SCRATCH,
                imm: v,
            }),
            FixValue::Rel { other, delta } => self.emit(Instruction::PAluI {
                op: AluOp::Add,
                rd: SCRATCH,
                rs1: other,
                imm: delta,
            }),
        };
        if let Some(meta) = plan.refit {
            self.fix_sites.push(FixSite {
                fix_pc,
                branch_pc,
                side: meta.side,
                op: meta.op,
                want: meta.want,
                taken_when,
                literal: meta.literal,
            });
        }
        let (base_reg, offset) = match plan.home_base {
            Base::Fp => (Reg::FP, plan.home_offset),
            Base::Abs => (Reg::ZERO, plan.home_offset),
        };
        self.emit(Instruction::PStore {
            width: plan.width,
            rs: SCRATCH,
            base: base_reg,
            offset,
        });
    }

    // ---- lvalues ----

    fn gen_lvalue(&mut self, e: &Expr) -> Result<Place, CompileError> {
        self.cur_line = e.line;
        match &e.kind {
            ExprKind::Var(name) => self.lookup_var(name).ok_or_else(|| CompileError {
                line: e.line,
                message: format!("unknown variable `{name}`"),
            }),
            ExprKind::Un(UnOp::Deref, inner) => {
                let (p, pt) = self.gen_expr(inner)?;
                let Type::Ptr(pointee) = pt else {
                    return cerr(e.line, "dereference of a non-pointer");
                };
                self.ccured_null_check(p, e.line);
                Ok(Place::Indirect {
                    addr: p,
                    ty: *pointee,
                })
            }
            ExprKind::Index(base, index) => self.gen_index_place(base, index, e.line),
            ExprKind::Member(base, field) => {
                let place = self.gen_lvalue(base)?;
                let Type::Struct(sname) = place.ty().clone() else {
                    return cerr(e.line, "member access on a non-struct");
                };
                let layout = self.types.layout(&sname).ok_or_else(|| CompileError {
                    line: e.line,
                    message: format!("unknown struct `{sname}`"),
                })?;
                let fl = layout.fields.get(field).ok_or_else(|| CompileError {
                    line: e.line,
                    message: format!("no field `{field}` in struct `{sname}`"),
                })?;
                let (foffset, fty) = (fl.offset as i32, fl.ty.clone());
                match place {
                    Place::Mem { base, offset, .. } => Ok(Place::Mem {
                        base,
                        offset: offset + foffset,
                        ty: fty,
                    }),
                    Place::Indirect { addr, .. } => {
                        self.emit(Instruction::AluI {
                            op: AluOp::Add,
                            rd: addr,
                            rs1: addr,
                            imm: foffset,
                        });
                        Ok(Place::Indirect { addr, ty: fty })
                    }
                }
            }
            ExprKind::Arrow(base, field) => {
                let (p, pt) = self.gen_expr(base)?;
                let Type::Ptr(pointee) = pt else {
                    return cerr(e.line, "`->` on a non-pointer");
                };
                let Type::Struct(sname) = *pointee else {
                    return cerr(e.line, "`->` on a pointer to non-struct");
                };
                self.ccured_null_check(p, e.line);
                let layout = self.types.layout(&sname).ok_or_else(|| CompileError {
                    line: e.line,
                    message: format!("unknown struct `{sname}`"),
                })?;
                let fl = layout.fields.get(field).ok_or_else(|| CompileError {
                    line: e.line,
                    message: format!("no field `{field}` in struct `{sname}`"),
                })?;
                let (foffset, fty) = (fl.offset as i32, fl.ty.clone());
                self.emit(Instruction::AluI {
                    op: AluOp::Add,
                    rd: p,
                    rs1: p,
                    imm: foffset,
                });
                Ok(Place::Indirect { addr: p, ty: fty })
            }
            _ => cerr(e.line, "expression is not assignable"),
        }
    }

    fn gen_index_place(
        &mut self,
        base: &Expr,
        index: &Expr,
        line: u32,
    ) -> Result<Place, CompileError> {
        // Determine the base address and element type.
        let base_ty = self.type_of_lvalue_or_expr(base)?;
        match base_ty {
            Type::Array(elem, n) => {
                let esz = self
                    .types
                    .size_of(&elem)
                    .map_err(|m| CompileError { line, message: m })?;
                // Address of the array.
                let addr = self.addr_of_lvalue(base)?;
                let (ri, _) = self.gen_expr(index)?;
                self.ccured_bounds_check(ri, n, line);
                self.scale_index(ri, esz)?;
                self.emit(Instruction::Alu {
                    op: AluOp::Add,
                    rd: addr,
                    rs1: addr,
                    rs2: ri,
                });
                self.free_temp(ri);
                Ok(Place::Indirect { addr, ty: *elem })
            }
            Type::Ptr(pointee) => {
                let esz = self
                    .types
                    .size_of(&pointee)
                    .map_err(|m| CompileError { line, message: m })?;
                let (p, _) = self.gen_expr(base)?;
                self.ccured_null_check(p, line);
                let (ri, _) = self.gen_expr(index)?;
                self.scale_index(ri, esz)?;
                self.emit(Instruction::Alu {
                    op: AluOp::Add,
                    rd: p,
                    rs1: p,
                    rs2: ri,
                });
                self.free_temp(ri);
                Ok(Place::Indirect {
                    addr: p,
                    ty: *pointee,
                })
            }
            other => cerr(line, format!("cannot index into `{other:?}`")),
        }
    }

    fn scale_index(&mut self, ri: Reg, esz: u32) -> Result<(), CompileError> {
        match esz {
            1 => {}
            n if n.is_power_of_two() => {
                self.emit(Instruction::AluI {
                    op: AluOp::Shl,
                    rd: ri,
                    rs1: ri,
                    imm: n.trailing_zeros() as i32,
                });
            }
            n => {
                self.emit(Instruction::AluI {
                    op: AluOp::Mul,
                    rd: ri,
                    rs1: ri,
                    imm: n as i32,
                });
            }
        }
        Ok(())
    }

    /// Type of an expression without emitting code (only the shapes needed
    /// to pick indexing strategies).
    fn type_of_lvalue_or_expr(&mut self, e: &Expr) -> Result<Type, CompileError> {
        match &e.kind {
            ExprKind::Var(name) => self
                .lookup_var(name)
                .map(|p| p.ty().clone())
                .ok_or_else(|| CompileError {
                    line: e.line,
                    message: format!("unknown variable `{name}`"),
                }),
            ExprKind::Member(base, field) | ExprKind::Arrow(base, field) => {
                let bt = self.type_of_lvalue_or_expr(base)?;
                let sname = match (&e.kind, bt) {
                    (ExprKind::Member(..), Type::Struct(s)) => s,
                    (ExprKind::Arrow(..), Type::Ptr(p)) => match *p {
                        Type::Struct(s) => s,
                        _ => return cerr(e.line, "`->` on a pointer to non-struct"),
                    },
                    _ => return cerr(e.line, "invalid member access"),
                };
                let layout = self.types.layout(&sname).ok_or_else(|| CompileError {
                    line: e.line,
                    message: format!("unknown struct `{sname}`"),
                })?;
                layout
                    .fields
                    .get(field)
                    .map(|f| f.ty.clone())
                    .ok_or_else(|| CompileError {
                        line: e.line,
                        message: format!("no field `{field}` in `{sname}`"),
                    })
            }
            ExprKind::Index(base, _) => match self.type_of_lvalue_or_expr(base)? {
                Type::Array(elem, _) => Ok(*elem),
                Type::Ptr(p) => Ok(*p),
                _ => cerr(e.line, "cannot index"),
            },
            ExprKind::Un(UnOp::Deref, inner) => match self.type_of_lvalue_or_expr(inner)? {
                Type::Ptr(p) => Ok(*p),
                _ => cerr(e.line, "dereference of a non-pointer"),
            },
            ExprKind::Un(UnOp::Addr, inner) => Ok(self.type_of_lvalue_or_expr(inner)?.ptr()),
            ExprKind::Call(name, _) => {
                if let Some((_, ret, _)) = self.func_labels.get(name) {
                    Ok(ret.clone())
                } else {
                    Ok(intrinsic_ret(name).unwrap_or(Type::Int))
                }
            }
            _ => Ok(Type::Int),
        }
    }

    /// Materializes the address of an lvalue into a fresh temp.
    fn addr_of_lvalue(&mut self, e: &Expr) -> Result<Reg, CompileError> {
        let place = self.gen_lvalue(e)?;
        match place {
            Place::Mem { base, offset, .. } => {
                let t = self.alloc_temp()?;
                let base_reg = match base {
                    Base::Fp => Reg::FP,
                    Base::Abs => Reg::ZERO,
                };
                self.emit(Instruction::AluI {
                    op: AluOp::Add,
                    rd: t,
                    rs1: base_reg,
                    imm: offset,
                });
                Ok(t)
            }
            Place::Indirect { addr, .. } => Ok(addr),
        }
    }

    fn store_place(&mut self, place: &Place, value: Reg, line: u32) -> Result<(), CompileError> {
        let ty = place.ty().clone();
        if !ty.is_scalar() {
            return cerr(line, "cannot assign a non-scalar value");
        }
        let width = if ty == Type::Char {
            Width::Byte
        } else {
            Width::Word
        };
        match place {
            Place::Mem { base, offset, .. } => {
                let base_reg = match base {
                    Base::Fp => Reg::FP,
                    Base::Abs => Reg::ZERO,
                };
                self.emit(Instruction::Store {
                    width,
                    rs: value,
                    base: base_reg,
                    offset: *offset,
                });
            }
            Place::Indirect { addr, .. } => {
                self.emit(Instruction::Store {
                    width,
                    rs: value,
                    base: *addr,
                    offset: 0,
                });
            }
        }
        Ok(())
    }

    fn load_place(&mut self, place: &Place, line: u32) -> Result<(Reg, Type), CompileError> {
        let ty = place.ty().clone();
        // Arrays decay to their address.
        if let Type::Array(elem, _) = &ty {
            let decayed = Type::Ptr(elem.clone());
            return match place {
                Place::Mem { base, offset, .. } => {
                    let t = self.alloc_temp()?;
                    let base_reg = match base {
                        Base::Fp => Reg::FP,
                        Base::Abs => Reg::ZERO,
                    };
                    self.emit(Instruction::AluI {
                        op: AluOp::Add,
                        rd: t,
                        rs1: base_reg,
                        imm: *offset,
                    });
                    Ok((t, decayed))
                }
                Place::Indirect { addr, .. } => Ok((*addr, decayed)),
            };
        }
        if !ty.is_scalar() {
            return cerr(line, "cannot load a non-scalar value");
        }
        let width = if ty == Type::Char {
            Width::Byte
        } else {
            Width::Word
        };
        match place {
            Place::Mem { base, offset, .. } => {
                let t = self.alloc_temp()?;
                let base_reg = match base {
                    Base::Fp => Reg::FP,
                    Base::Abs => Reg::ZERO,
                };
                self.emit(Instruction::Load {
                    width,
                    rd: t,
                    base: base_reg,
                    offset: *offset,
                });
                Ok((t, ty))
            }
            Place::Indirect { addr, .. } => {
                self.emit(Instruction::Load {
                    width,
                    rd: *addr,
                    base: *addr,
                    offset: 0,
                });
                Ok((*addr, ty))
            }
        }
    }

    // ---- expressions ----

    #[allow(clippy::too_many_lines)]
    fn gen_expr(&mut self, e: &Expr) -> Result<(Reg, Type), CompileError> {
        self.cur_line = e.line;
        match &e.kind {
            ExprKind::Int(v) => {
                let t = self.alloc_temp()?;
                self.li(t, *v as i32);
                Ok((t, Type::Int))
            }
            ExprKind::Str(bytes) => {
                let mut blob = bytes.clone();
                blob.push(0);
                let addr = self.push_data(&blob);
                let t = self.alloc_temp()?;
                self.li(t, addr as i32);
                Ok((t, Type::Char.ptr()))
            }
            ExprKind::SizeOf(ty) => {
                let size = self.types.size_of(ty).map_err(|m| CompileError {
                    line: e.line,
                    message: m,
                })?;
                let t = self.alloc_temp()?;
                self.li(t, size as i32);
                Ok((t, Type::Int))
            }
            ExprKind::Var(_) | ExprKind::Member(..) | ExprKind::Arrow(..) | ExprKind::Index(..) => {
                let place = self.gen_lvalue(e)?;
                self.load_place(&place, e.line)
            }
            ExprKind::Un(UnOp::Deref, _) => {
                let place = self.gen_lvalue(e)?;
                self.load_place(&place, e.line)
            }
            ExprKind::Un(UnOp::Addr, inner) => {
                let t = self.addr_of_lvalue(inner)?;
                let ty = self.type_of_lvalue_or_expr(inner)?;
                let pointee = match ty {
                    Type::Array(elem, _) => *elem,
                    other => other,
                };
                Ok((t, pointee.ptr()))
            }
            ExprKind::Un(UnOp::Neg, inner) => {
                let (r, _) = self.gen_expr(inner)?;
                self.emit(Instruction::Alu {
                    op: AluOp::Sub,
                    rd: r,
                    rs1: Reg::ZERO,
                    rs2: r,
                });
                Ok((r, Type::Int))
            }
            ExprKind::Un(UnOp::Not, inner) => {
                let (r, _) = self.gen_expr(inner)?;
                self.emit(Instruction::Alu {
                    op: AluOp::Seq,
                    rd: r,
                    rs1: r,
                    rs2: Reg::ZERO,
                });
                Ok((r, Type::Int))
            }
            ExprKind::Bin(BinOp::LogAnd | BinOp::LogOr, ..) => {
                // Value context: materialize 0/1 through branches.
                let t = self.alloc_temp()?;
                let l_false = self.new_label();
                let l_end = self.new_label();
                // Free the temp during condition evaluation ordering: the
                // condition uses its own temps above `t`.
                self.branch_false(e, l_false)?;
                self.li(t, 1);
                self.emit_jump(l_end);
                self.bind(l_false);
                self.li(t, 0);
                self.bind(l_end);
                Ok((t, Type::Int))
            }
            ExprKind::Bin(op, a, b) => {
                let (ra, ta) = self.gen_expr(a)?;
                let (rb, tb) = self.gen_expr(b)?;
                let result_ty = self.emit_binop(*op, ra, &ta, rb, &tb, e.line)?;
                self.free_temp(rb);
                Ok((ra, result_ty))
            }
            ExprKind::Call(name, args) => {
                let r = self.gen_call(name, args, e.line, false)?;
                r.map(|r| {
                    let ty = if let Some((_, ret, _)) = self.func_labels.get(name) {
                        ret.clone()
                    } else {
                        intrinsic_ret(name).unwrap_or(Type::Int)
                    };
                    (r, ty)
                })
                .ok_or_else(|| CompileError {
                    line: e.line,
                    message: format!("void call `{name}` used as a value"),
                })
            }
        }
    }

    fn emit_binop(
        &mut self,
        op: BinOp,
        ra: Reg,
        ta: &Type,
        rb: Reg,
        tb: &Type,
        line: u32,
    ) -> Result<Type, CompileError> {
        // Pointer arithmetic scaling.
        if matches!(op, BinOp::Add | BinOp::Sub) {
            if let Type::Ptr(pointee) = ta {
                if !tb.is_ptr() {
                    let esz = self
                        .types
                        .size_of(pointee)
                        .map_err(|m| CompileError { line, message: m })?;
                    self.scale_index(rb, esz)?;
                    let alu = if op == BinOp::Add {
                        AluOp::Add
                    } else {
                        AluOp::Sub
                    };
                    self.emit(Instruction::Alu {
                        op: alu,
                        rd: ra,
                        rs1: ra,
                        rs2: rb,
                    });
                    return Ok(ta.clone());
                }
                // ptr - ptr: element count.
                if op == BinOp::Sub && tb.is_ptr() {
                    let esz = self
                        .types
                        .size_of(pointee)
                        .map_err(|m| CompileError { line, message: m })?;
                    self.emit(Instruction::Alu {
                        op: AluOp::Sub,
                        rd: ra,
                        rs1: ra,
                        rs2: rb,
                    });
                    if esz > 1 {
                        self.emit(Instruction::AluI {
                            op: AluOp::Div,
                            rd: ra,
                            rs1: ra,
                            imm: esz as i32,
                        });
                    }
                    return Ok(Type::Int);
                }
            }
            if let Type::Ptr(pointee) = tb {
                if op == BinOp::Add && !ta.is_ptr() {
                    let esz = self
                        .types
                        .size_of(pointee)
                        .map_err(|m| CompileError { line, message: m })?;
                    self.scale_index(ra, esz)?;
                    self.emit(Instruction::Alu {
                        op: AluOp::Add,
                        rd: ra,
                        rs1: ra,
                        rs2: rb,
                    });
                    return Ok(tb.clone());
                }
            }
        }

        let alu = match op {
            BinOp::Add => AluOp::Add,
            BinOp::Sub => AluOp::Sub,
            BinOp::Mul => AluOp::Mul,
            BinOp::Div => AluOp::Div,
            BinOp::Rem => AluOp::Rem,
            BinOp::BitAnd => AluOp::And,
            BinOp::BitOr => AluOp::Or,
            BinOp::BitXor => AluOp::Xor,
            BinOp::Shl => AluOp::Shl,
            BinOp::Shr => AluOp::Sar,
            BinOp::Eq => AluOp::Seq,
            BinOp::Ne => AluOp::Sne,
            BinOp::Lt => AluOp::Slt,
            BinOp::Le => AluOp::Sle,
            BinOp::Gt => AluOp::Slt,
            BinOp::Ge => AluOp::Sle,
            BinOp::LogAnd | BinOp::LogOr => unreachable!("handled by caller"),
        };
        // Gt/Ge swap operands.
        if matches!(op, BinOp::Gt | BinOp::Ge) {
            self.emit(Instruction::Alu {
                op: alu,
                rd: ra,
                rs1: rb,
                rs2: ra,
            });
        } else {
            self.emit(Instruction::Alu {
                op: alu,
                rd: ra,
                rs1: ra,
                rs2: rb,
            });
        }
        Ok(Type::Int)
    }

    // ---- calls and intrinsics ----

    #[allow(clippy::too_many_lines)]
    fn gen_call(
        &mut self,
        name: &str,
        args: &[Expr],
        line: u32,
        _stmt_ctx: bool,
    ) -> Result<Option<Reg>, CompileError> {
        let argn = |n: usize| -> Result<(), CompileError> {
            if args.len() == n {
                Ok(())
            } else {
                cerr(
                    line,
                    format!("`{name}` expects {n} argument(s), got {}", args.len()),
                )
            }
        };
        match name {
            "getchar" | "readint" | "rand" | "time" => {
                argn(0)?;
                let code = match name {
                    "getchar" => SyscallCode::GetChar,
                    "readint" => SyscallCode::ReadInt,
                    "rand" => SyscallCode::Rand,
                    _ => SyscallCode::Time,
                };
                self.emit(Instruction::Syscall { code });
                let t = self.alloc_temp()?;
                self.mv(t, Reg::RV);
                return Ok(Some(t));
            }
            "putchar" | "printint" | "exit" => {
                argn(1)?;
                let (r, _) = self.gen_expr(&args[0])?;
                self.mv(Reg::A0, r);
                self.free_temp(r);
                let code = match name {
                    "putchar" => SyscallCode::PutChar,
                    "printint" => SyscallCode::PrintInt,
                    _ => SyscallCode::Exit,
                };
                self.emit(Instruction::Syscall { code });
                return Ok(None);
            }
            "assert" => {
                argn(1)?;
                let region_start = self.b.next_pc();
                let (r, _) = self.gen_expr(&args[0])?;
                let site = self.new_site(CheckKind::Assertion, line);
                self.emit(Instruction::Check {
                    kind: CheckKind::Assertion,
                    cond: r,
                    site,
                });
                self.free_temp(r);
                self.b.add_checker_region(region_start, self.b.next_pc());
                return Ok(None);
            }
            "alloc" => {
                argn(1)?;
                let (rn, _) = self.gen_expr(&args[0])?;
                // Align request to 4.
                self.emit(Instruction::AluI {
                    op: AluOp::Add,
                    rd: rn,
                    rs1: rn,
                    imm: 3,
                });
                self.emit(Instruction::AluI {
                    op: AluOp::And,
                    rd: rn,
                    rs1: rn,
                    imm: -4,
                });
                let t = self.alloc_temp()?;
                self.emit(Instruction::Load {
                    width: Width::Word,
                    rd: t,
                    base: Reg::ZERO,
                    offset: self.heap_ptr_addr as i32,
                });
                self.emit(Instruction::Alu {
                    op: AluOp::Add,
                    rd: rn,
                    rs1: t,
                    rs2: rn,
                });
                self.emit(Instruction::Store {
                    width: Width::Word,
                    rs: rn,
                    base: Reg::ZERO,
                    offset: self.heap_ptr_addr as i32,
                });
                // Result is the old heap pointer, now in `t`; swap temps so
                // the returned temp is the top of the stack.
                self.mv(SCRATCH, t);
                self.mv(t, rn);
                self.mv(rn, SCRATCH);
                let result = rn;
                self.free_temp(t);
                return Ok(Some(result));
            }
            "watch" => {
                argn(3)?;
                let ExprKind::Int(tag) = args[2].kind else {
                    return cerr(line, "`watch` tag must be a constant");
                };
                let (rp, _) = self.gen_expr(&args[0])?;
                let (rl, _) = self.gen_expr(&args[1])?;
                self.emit(Instruction::SetWatch {
                    base: rp,
                    len: rl,
                    tag: tag as u32,
                });
                self.free_temp(rl);
                self.free_temp(rp);
                return Ok(None);
            }
            "unwatch" => {
                argn(1)?;
                let ExprKind::Int(tag) = args[0].kind else {
                    return cerr(line, "`unwatch` tag must be a constant");
                };
                self.emit(Instruction::ClearWatch { tag: tag as u32 });
                return Ok(None);
            }
            _ => {}
        }

        // User function.
        let Some((label, ret, params)) = self.func_labels.get(name).cloned() else {
            return cerr(line, format!("unknown function `{name}`"));
        };
        if params.len() != args.len() {
            return cerr(
                line,
                format!(
                    "`{name}` expects {} argument(s), got {}",
                    params.len(),
                    args.len()
                ),
            );
        }
        // Spill the temps that must survive the call *below* the argument
        // area, so the callee still sees its arguments at `fp+0..`.
        let live = self.live_temps();
        let spill = live.len() as i32;
        if spill > 0 {
            self.emit(Instruction::AluI {
                op: AluOp::Sub,
                rd: Reg::SP,
                rs1: Reg::SP,
                imm: spill * 4,
            });
            for (i, r) in live.iter().enumerate() {
                self.emit(Instruction::Store {
                    width: Width::Word,
                    rs: *r,
                    base: Reg::SP,
                    offset: i as i32 * 4,
                });
            }
        }
        let argc = args.len() as i32;
        if argc > 0 {
            self.emit(Instruction::AluI {
                op: AluOp::Sub,
                rd: Reg::SP,
                rs1: Reg::SP,
                imm: argc * 4,
            });
        }
        for (i, arg) in args.iter().enumerate() {
            let (r, _) = self.gen_expr(arg)?;
            self.emit(Instruction::Store {
                width: Width::Word,
                rs: r,
                base: Reg::SP,
                offset: i as i32 * 4,
            });
            self.free_temp(r);
        }
        self.emit_call(label);
        if argc > 0 {
            self.emit(Instruction::AluI {
                op: AluOp::Add,
                rd: Reg::SP,
                rs1: Reg::SP,
                imm: argc * 4,
            });
        }
        if spill > 0 {
            for (i, r) in live.iter().enumerate() {
                self.emit(Instruction::Load {
                    width: Width::Word,
                    rd: *r,
                    base: Reg::SP,
                    offset: i as i32 * 4,
                });
            }
            self.emit(Instruction::AluI {
                op: AluOp::Add,
                rd: Reg::SP,
                rs1: Reg::SP,
                imm: spill * 4,
            });
        }
        if ret == Type::Void {
            Ok(None)
        } else {
            let t = self.alloc_temp()?;
            self.mv(t, Reg::RV);
            Ok(Some(t))
        }
    }

    // ---- CCured instrumentation ----

    fn ccured_null_check(&mut self, p: Reg, line: u32) {
        if !self.opts.ccured {
            return;
        }
        let start = self.b.next_pc();
        let site = self.new_site(CheckKind::CcuredNull, line);
        self.emit(Instruction::Alu {
            op: AluOp::Sne,
            rd: SCRATCH,
            rs1: p,
            rs2: Reg::ZERO,
        });
        self.emit(Instruction::Check {
            kind: CheckKind::CcuredNull,
            cond: SCRATCH,
            site,
        });
        self.b.add_checker_region(start, self.b.next_pc());
    }

    fn ccured_bounds_check(&mut self, idx: Reg, n: u32, line: u32) {
        if !self.opts.ccured {
            return;
        }
        let start = self.b.next_pc();
        let site = self.new_site(CheckKind::CcuredBound, line);
        self.emit(Instruction::AluI {
            op: AluOp::Sltu,
            rd: SCRATCH,
            rs1: idx,
            imm: n as i32,
        });
        self.emit(Instruction::Check {
            kind: CheckKind::CcuredBound,
            cond: SCRATCH,
            site,
        });
        self.b.add_checker_region(start, self.b.next_pc());
    }
}

fn comparison_cond(op: BinOp) -> BranchCond {
    match op {
        BinOp::Eq => BranchCond::Eq,
        BinOp::Ne => BranchCond::Ne,
        BinOp::Lt => BranchCond::Lt,
        BinOp::Le => BranchCond::Le,
        BinOp::Gt => BranchCond::Gt,
        BinOp::Ge => BranchCond::Ge,
        _ => unreachable!("not a comparison"),
    }
}

/// `a OP b` ⇔ `b mirror(OP) a`.
fn mirror(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        other => other,
    }
}

/// Boundary fix: for `var OP k`, returns `delta` such that `k + delta`
/// satisfies (`want=true`) or violates (`want=false`) the comparison, at the
/// boundary (paper §4.4(1)).
pub(crate) fn boundary_delta(op: BinOp, want: bool) -> Option<i32> {
    Some(match (op, want) {
        (BinOp::Lt, true) | (BinOp::Ge, false) => -1,
        (BinOp::Lt, false) | (BinOp::Ge, true) => 0,
        (BinOp::Le, true) | (BinOp::Gt, false) => 0,
        (BinOp::Le, false) | (BinOp::Gt, true) => 1,
        (BinOp::Eq, true) | (BinOp::Ne, false) => 0,
        (BinOp::Eq, false) | (BinOp::Ne, true) => 1,
        _ => return None,
    })
}

/// Direction (±1) that moves deeper into the satisfying half-space.
pub(crate) fn satisfying_direction(op: BinOp, want: bool) -> i32 {
    match (op, want) {
        (BinOp::Lt | BinOp::Le, true) | (BinOp::Gt | BinOp::Ge, false) => -1,
        _ => 1,
    }
}

fn intrinsic_ret(name: &str) -> Option<Type> {
    match name {
        "getchar" | "readint" | "rand" | "time" => Some(Type::Int),
        "alloc" => Some(Type::Char.ptr()),
        "putchar" | "printint" | "exit" | "assert" | "watch" | "unwatch" => Some(Type::Void),
        _ => None,
    }
}
