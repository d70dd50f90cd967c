//! The netlist intermediate representation.

use manticore_bits::Bits;

/// Identifies a net (a single-assignment combinational value).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NetId(pub u32);

/// Identifies a register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RegId(pub u32);

/// Identifies a memory bank (Verilog unpacked array).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MemoryId(pub u32);

impl NetId {
    /// The index of this net in [`Netlist::nets`].
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl RegId {
    /// The index of this register in [`Netlist::registers`].
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl MemoryId {
    /// The index of this memory in [`Netlist::memories`].
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The operation computed by a cell. Operand nets live in [`Net::args`].
///
/// All binary arithmetic/logic ops require equal operand widths; the builder
/// enforces this at construction time (`C-VALIDATE`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum CellOp {
    /// A constant value. Width is the constant's width.
    Const(Bits),
    /// A primary input, driven by the test stimulus each cycle.
    Input,
    /// The current-cycle value of a register (the `-` node of the paper's DAG).
    RegQ(RegId),
    /// Combinational (asynchronous) read of `mem[addr]`; `args = [addr]`.
    MemRead(MemoryId),
    /// Bitwise AND; `args = [a, b]`.
    And,
    /// Bitwise OR; `args = [a, b]`.
    Or,
    /// Bitwise XOR; `args = [a, b]`.
    Xor,
    /// Bitwise NOT; `args = [a]`.
    Not,
    /// Wrapping addition; `args = [a, b]`.
    Add,
    /// Wrapping subtraction; `args = [a, b]`.
    Sub,
    /// Wrapping multiplication (result width = operand width); `args = [a, b]`.
    Mul,
    /// Equality, 1-bit result; `args = [a, b]`.
    Eq,
    /// Unsigned less-than, 1-bit result; `args = [a, b]`.
    Ult,
    /// Signed less-than, 1-bit result; `args = [a, b]`.
    Slt,
    /// Dynamic logical shift left; `args = [value, amount]`.
    Shl,
    /// Dynamic logical shift right; `args = [value, amount]`.
    Shr,
    /// Dynamic arithmetic shift right; `args = [value, amount]`.
    Ashr,
    /// Bit slice `value[offset +: width]`; `args = [value]`, result width = `width`.
    Slice {
        /// LSB offset of the slice.
        offset: usize,
    },
    /// Concatenation `{hi, lo}`; `args = [lo, hi]`, result width = sum.
    Concat,
    /// Zero extension; `args = [value]`.
    ZExt,
    /// Sign extension; `args = [value]`.
    SExt,
    /// 2:1 multiplexer; `args = [sel, if_true, if_false]`, `sel` is 1 bit.
    Mux,
    /// Reduction OR (1-bit); `args = [value]`.
    RedOr,
    /// Reduction AND (1-bit); `args = [value]`.
    RedAnd,
    /// Reduction XOR (1-bit); `args = [value]`.
    RedXor,
}

impl CellOp {
    /// True for ops that are pure bitwise logic (candidates for custom
    /// function synthesis, §6.2 of the paper).
    pub fn is_bitwise_logic(&self) -> bool {
        matches!(self, CellOp::And | CellOp::Or | CellOp::Xor | CellOp::Not)
    }

    /// True for source nodes of the combinational DAG (no net operands
    /// participate in ordering).
    pub fn is_source(&self) -> bool {
        matches!(self, CellOp::Const(_) | CellOp::Input | CellOp::RegQ(_))
    }

    /// Short mnemonic used in debug dumps and statistics.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            CellOp::Const(_) => "const",
            CellOp::Input => "input",
            CellOp::RegQ(_) => "regq",
            CellOp::MemRead(_) => "memread",
            CellOp::And => "and",
            CellOp::Or => "or",
            CellOp::Xor => "xor",
            CellOp::Not => "not",
            CellOp::Add => "add",
            CellOp::Sub => "sub",
            CellOp::Mul => "mul",
            CellOp::Eq => "eq",
            CellOp::Ult => "ult",
            CellOp::Slt => "slt",
            CellOp::Shl => "shl",
            CellOp::Shr => "shr",
            CellOp::Ashr => "ashr",
            CellOp::Slice { .. } => "slice",
            CellOp::Concat => "concat",
            CellOp::ZExt => "zext",
            CellOp::SExt => "sext",
            CellOp::Mux => "mux",
            CellOp::RedOr => "redor",
            CellOp::RedAnd => "redand",
            CellOp::RedXor => "redxor",
        }
    }
}

/// A single net: the value produced by one cell.
#[derive(Debug, Clone, Hash)]
pub struct Net {
    /// The operation producing this net.
    pub op: CellOp,
    /// Operand nets, in the order documented on [`CellOp`].
    pub args: Vec<NetId>,
    /// Width in bits of the produced value.
    pub width: usize,
}

/// A register: `q` holds the current value, `next` computes the next value.
#[derive(Debug, Clone, Hash)]
pub struct Register {
    /// Debug name.
    pub name: String,
    /// Width in bits.
    pub width: usize,
    /// Reset / power-on value.
    pub init: Bits,
    /// The net computing the next value (sink of the combinational DAG).
    pub next: NetId,
    /// The net exposing the current value (source of the combinational DAG).
    pub q: NetId,
}

/// A synchronous-write, asynchronous-read memory bank.
#[derive(Debug, Clone, Hash)]
pub struct Memory {
    /// Debug name.
    pub name: String,
    /// Number of words.
    pub depth: usize,
    /// Word width in bits.
    pub width: usize,
    /// Initial contents (empty means all zeros).
    pub init: Vec<Bits>,
    /// Write ports, applied at the clock edge after all reads.
    pub writes: Vec<MemWrite>,
}

/// One synchronous write port: `if en { mem[addr] <= data }`.
#[derive(Debug, Clone, Hash)]
pub struct MemWrite {
    /// Address net.
    pub addr: NetId,
    /// Data net (must match the memory word width).
    pub data: NetId,
    /// 1-bit write-enable net.
    pub en: NetId,
}

/// A `$display`-style testbench cell: fires when `cond` is non-zero.
#[derive(Debug, Clone, Hash)]
pub struct DisplayCell {
    /// 1-bit condition net.
    pub cond: NetId,
    /// Format string; `{}` placeholders consume `args` in order.
    pub format: String,
    /// Value nets printed by the placeholders.
    pub args: Vec<NetId>,
}

/// An assertion: if `cond` is zero when sampled, the simulation reports a
/// failure with this id/message. This is the netlist-level source of the
/// Manticore `EXPECT` instruction.
#[derive(Debug, Clone, Hash)]
pub struct ExpectCell {
    /// 1-bit condition net that must be non-zero every cycle.
    pub cond: NetId,
    /// Stable identifier reported to the host on failure.
    pub id: u32,
    /// Human-readable message.
    pub message: String,
}

/// A `$finish` cell: ends the simulation when `cond` is non-zero.
#[derive(Debug, Clone, Hash)]
pub struct FinishCell {
    /// 1-bit condition net.
    pub cond: NetId,
}

/// A complete single-clock netlist.
///
/// Construct with [`crate::NetlistBuilder`]; fields are read-only outside
/// this crate to preserve the structural invariants the builder checks
/// (operand widths, acyclicity, id validity).
#[derive(Debug, Clone, Hash)]
pub struct Netlist {
    pub(crate) name: String,
    pub(crate) nets: Vec<Net>,
    pub(crate) registers: Vec<Register>,
    pub(crate) memories: Vec<Memory>,
    pub(crate) inputs: Vec<(String, NetId)>,
    pub(crate) outputs: Vec<(String, NetId)>,
    pub(crate) displays: Vec<DisplayCell>,
    pub(crate) expects: Vec<ExpectCell>,
    pub(crate) finishes: Vec<FinishCell>,
}

impl Netlist {
    /// Design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All nets, indexable by [`NetId::index`].
    pub fn nets(&self) -> &[Net] {
        &self.nets
    }

    /// The net record for `id`.
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.index()]
    }

    /// All registers, indexable by [`RegId::index`].
    pub fn registers(&self) -> &[Register] {
        &self.registers
    }

    /// All memories, indexable by [`MemoryId::index`].
    pub fn memories(&self) -> &[Memory] {
        &self.memories
    }

    /// Primary inputs as `(name, net)` pairs.
    pub fn inputs(&self) -> &[(String, NetId)] {
        &self.inputs
    }

    /// Named observation points as `(name, net)` pairs.
    pub fn outputs(&self) -> &[(String, NetId)] {
        &self.outputs
    }

    /// `$display` cells.
    pub fn displays(&self) -> &[DisplayCell] {
        &self.displays
    }

    /// Assertion cells.
    pub fn expects(&self) -> &[ExpectCell] {
        &self.expects
    }

    /// `$finish` cells.
    pub fn finishes(&self) -> &[FinishCell] {
        &self.finishes
    }

    /// Looks up an output net by name.
    pub fn output(&self, name: &str) -> Option<NetId> {
        self.outputs
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, id)| id)
    }

    /// All sink nets of the combinational DAG: register `next` inputs, memory
    /// write-port nets, and testbench condition/argument nets. These are the
    /// roots from which the compiler's per-sink cones are grown (§3.2).
    pub fn sink_nets(&self) -> Vec<NetId> {
        let mut sinks = Vec::new();
        for r in &self.registers {
            sinks.push(r.next);
        }
        for m in &self.memories {
            for w in &m.writes {
                sinks.push(w.addr);
                sinks.push(w.data);
                sinks.push(w.en);
            }
        }
        for d in &self.displays {
            sinks.push(d.cond);
            sinks.extend(&d.args);
        }
        for e in &self.expects {
            sinks.push(e.cond);
        }
        for f in &self.finishes {
            sinks.push(f.cond);
        }
        sinks.sort_unstable();
        sinks.dedup();
        sinks
    }
}
