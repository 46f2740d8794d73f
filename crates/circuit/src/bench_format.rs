//! Reading and writing the ISCAS-85 `.bench` netlist format.
//!
//! The format used by the ISCAS-85 benchmark distribution looks like:
//!
//! ```text
//! # c17 example
//! INPUT(1)
//! OUTPUT(22)
//! 10 = NAND(1, 3)
//! 22 = NAND(10, 16)
//! ```
//!
//! Supported cells: `NAND`, `NOR`, `AND`, `OR`, `NOT`/`INV`, `BUF`/`BUFF`,
//! `XOR`, `XNOR` (arbitrary arity where meaningful). Sequential cells such
//! as `DFF` are rejected — ISCAS-85 circuits are combinational.

use crate::error::CircuitError;
use crate::gate::GateKind;
use crate::id::NetId;
use crate::netlist::{Netlist, NetlistBuilder};
use std::collections::HashMap;

/// Parses a `.bench` description into a netlist (macro gates preserved).
///
/// Use [`parse_bench_primitive`] to parse and expand in one step.
///
/// # Errors
///
/// Returns [`CircuitError::Parse`] on malformed lines and on a signal
/// defined twice (by two gates, two `INPUT`s, or one of each),
/// [`CircuitError::UnsupportedCell`] on sequential cells, and
/// [`CircuitError::UnknownSignal`] when a referenced signal is never
/// defined or only defined through a cycle.
///
/// Gate definitions may appear in any order; time and memory are
/// linear in the text (plus a sort of the definitions). Gates are
/// created in the order of the historical "resolve every definable
/// gate, pass after pass, until quiescent" reader, so gate ids do not
/// depend on the algorithm: definition `d` would resolve in pass
/// `p(d) = max(1, max over its arguments a of p(a) + [a is defined
/// after d])` (primary inputs have `p = 0`), and gates are created by
/// `(p(d), line)`. An in-order file therefore gets its gates in file
/// order.
pub fn parse_bench(name: &str, text: &str) -> Result<Netlist, CircuitError> {
    // First pass: collect inputs, outputs, and gate definitions, and
    // number every defined signal.
    struct GateDef<'a> {
        line: usize,
        out: &'a str,
        cell: String,
        args: Vec<&'a str>,
    }
    let mut inputs = Vec::new();
    let mut outputs = Vec::new();
    let mut defs: Vec<GateDef> = Vec::new();
    // `slot[name]` numbers a defined signal; `producer[slot]` is the
    // index of its gate definition, `None` for a primary input.
    let mut slot: HashMap<&str, usize> = HashMap::new();
    let mut producer: Vec<Option<usize>> = Vec::new();
    let mut define = |signal, by, line| {
        if slot.insert(signal, producer.len()).is_some() {
            return Err(CircuitError::Parse {
                line,
                message: format!("signal `{signal}` is defined twice"),
            });
        }
        producer.push(by);
        Ok(())
    };
    for (lineno, raw) in text.lines().enumerate() {
        let line = lineno + 1;
        let stripped = match raw.find('#') {
            Some(pos) => &raw[..pos],
            None => raw,
        }
        .trim();
        if stripped.is_empty() {
            continue;
        }
        if let Some(arg) = parse_directive(stripped, "INPUT") {
            define(arg, None, line)?;
            inputs.push(arg);
            continue;
        }
        if let Some(arg) = parse_directive(stripped, "OUTPUT") {
            outputs.push(arg);
            continue;
        }
        let Some(eq) = stripped.find('=') else {
            return Err(CircuitError::Parse {
                line,
                message: format!("expected `name = CELL(args)`, found `{stripped}`"),
            });
        };
        let out = stripped[..eq].trim();
        let rhs = stripped[eq + 1..].trim();
        let Some(open) = rhs.find('(') else {
            return Err(CircuitError::Parse {
                line,
                message: format!("missing `(` in `{rhs}`"),
            });
        };
        // The last `)` after the `(`: one before it would leave the
        // argument list a reversed range.
        let Some(close) = rhs[open..].rfind(')').map(|at| open + at) else {
            return Err(CircuitError::Parse {
                line,
                message: format!("missing `)` in `{rhs}`"),
            });
        };
        let cell = rhs[..open].trim().to_ascii_uppercase();
        let args: Vec<&str> = rhs[open + 1..close]
            .split(',')
            .map(str::trim)
            .filter(|a| !a.is_empty())
            .collect();
        if args.is_empty() {
            return Err(CircuitError::Parse {
                line,
                message: format!("cell `{cell}` has no arguments"),
            });
        }
        define(out, Some(defs.len()), line)?;
        defs.push(GateDef {
            line,
            out,
            cell,
            args,
        });
    }

    // Resolve by a worklist: each definition waits on its arguments
    // that are gate outputs (forever on undefined ones), and becomes
    // ready once all of them are ready. `pass[d]` is the historical
    // pass number (see above).
    let arg_slots: Vec<Vec<Option<usize>>> = defs
        .iter()
        .map(|def| def.args.iter().map(|a| slot.get(a).copied()).collect())
        .collect();
    let mut pass = vec![0usize; defs.len()];
    let mut waiting = vec![0usize; defs.len()];
    let mut waiters: Vec<Vec<usize>> = vec![Vec::new(); defs.len()];
    let mut ready = Vec::new();
    for (d, slots) in arg_slots.iter().enumerate() {
        for s in slots {
            match s.map(|s| producer[s]) {
                Some(None) => {}
                Some(Some(e)) => {
                    waiting[d] += 1;
                    waiters[e].push(d);
                }
                None => waiting[d] += 1,
            }
        }
        if waiting[d] == 0 {
            ready.push(d);
        }
    }
    let mut resolved = Vec::with_capacity(defs.len());
    while let Some(d) = ready.pop() {
        pass[d] = arg_slots[d]
            .iter()
            .filter_map(|&s| producer[s.expect("a ready gate's arguments are defined")])
            .map(|e| pass[e] + usize::from(e > d))
            .fold(1, usize::max);
        resolved.push(d);
        for &w in &waiters[d] {
            waiting[w] -= 1;
            if waiting[w] == 0 {
                ready.push(w);
            }
        }
    }
    resolved.sort_unstable_by_key(|&d| (pass[d], d));

    let mut b = NetlistBuilder::new(name);
    // The net of each signal slot, once created.
    let mut net: Vec<Option<NetId>> = vec![None; producer.len()];
    for &input in &inputs {
        net[slot[input]] = Some(b.input(input));
    }
    for &d in &resolved {
        let def = &defs[d];
        let args: Vec<NetId> = arg_slots[d]
            .iter()
            .map(|s| {
                s.and_then(|s| net[s])
                    .expect("a ready gate's arguments are built")
            })
            .collect();
        let out = match cell_kind(&def.cell, args.len(), def.line)? {
            // 1-input pass-throughs that some files use.
            None => args[0],
            Some(kind) => b
                .named_gate(kind, &args, Some(def.out.to_owned()))
                .map_err(|e| match e {
                    CircuitError::BadArity {
                        expected, found, ..
                    } => CircuitError::Parse {
                        line: def.line,
                        message: format!(
                            "cell `{}` expects {expected} args, found {found}",
                            def.cell
                        ),
                    },
                    other => other,
                })?,
        };
        net[slot[def.out]] = Some(out);
    }
    let net_of = |signal: &str| slot.get(signal).and_then(|&s| net[s]);
    // A definition left over waits on an undefined signal or sits on a
    // cycle: report the first one's first missing argument.
    if let Some(def) = defs.iter().find(|def| net_of(def.out).is_none()) {
        let missing = def
            .args
            .iter()
            .find(|a| net_of(a).is_none())
            .expect("unresolved definition has a missing argument");
        return Err(CircuitError::UnknownSignal {
            name: (*missing).to_owned(),
        });
    }
    for output in outputs {
        let Some(net) = net_of(output) else {
            return Err(CircuitError::UnknownSignal {
                name: output.to_owned(),
            });
        };
        b.output(net, output);
    }
    b.finish()
}

/// Parses a `.bench` description and expands macros into primitive gates.
///
/// # Errors
///
/// Propagates errors from [`parse_bench`] and
/// [`Netlist::expand_to_primitives`].
pub fn parse_bench_primitive(name: &str, text: &str) -> Result<Netlist, CircuitError> {
    parse_bench(name, text)?.expand_to_primitives()
}

fn parse_directive<'a>(line: &'a str, keyword: &str) -> Option<&'a str> {
    let rest = line.strip_prefix(keyword)?.trim_start();
    let rest = rest.strip_prefix('(')?;
    let rest = rest.strip_suffix(')')?;
    Some(rest.trim())
}

/// Maps a cell name to a gate kind. `Ok(None)` means a 1-input buffer-like
/// cell that can be collapsed to a plain wire alias is *not* collapsed — we
/// keep BUF explicit; `None` is only returned for single-input AND/OR which
/// some generators emit.
fn cell_kind(cell: &str, arity: usize, line: usize) -> Result<Option<GateKind>, CircuitError> {
    let kind = match cell {
        "NOT" | "INV" => {
            if arity != 1 {
                return Err(CircuitError::Parse {
                    line,
                    message: format!("NOT with {arity} inputs"),
                });
            }
            GateKind::Inv
        }
        "BUF" | "BUFF" => {
            if arity != 1 {
                return Err(CircuitError::Parse {
                    line,
                    message: format!("BUF with {arity} inputs"),
                });
            }
            GateKind::Buf
        }
        "NAND" => match arity {
            1 => GateKind::Inv,
            n => GateKind::nand(n)?,
        },
        "NOR" => match arity {
            1 => GateKind::Inv,
            n => GateKind::nor(n)?,
        },
        "AND" => match arity {
            1 => return Ok(None),
            n => GateKind::and(n)?,
        },
        "OR" => match arity {
            1 => return Ok(None),
            n => GateKind::or(n)?,
        },
        "XOR" => match arity {
            2 => GateKind::Xor2,
            n => {
                return Err(CircuitError::Parse {
                    line,
                    message: format!("XOR with {n} inputs is not supported"),
                })
            }
        },
        "XNOR" => match arity {
            2 => GateKind::Xnor2,
            n => {
                return Err(CircuitError::Parse {
                    line,
                    message: format!("XNOR with {n} inputs is not supported"),
                })
            }
        },
        other => {
            return Err(CircuitError::UnsupportedCell {
                line,
                cell: other.to_owned(),
            })
        }
    };
    Ok(Some(kind))
}

/// Serializes a netlist to `.bench` text.
///
/// Gates are written in topological order; unnamed signals get synthetic
/// `n<k>` names.
///
/// # Errors
///
/// Returns [`CircuitError::Cyclic`] if the netlist is cyclic.
pub fn write_bench(netlist: &Netlist) -> Result<String, CircuitError> {
    let order = netlist.topo_gates()?;
    let mut out = String::new();
    out.push_str(&format!("# {}\n", netlist.name()));
    let signal_name = |net: NetId| -> String {
        match netlist.net(net).name() {
            Some(n) => n.to_owned(),
            None => format!("n{}", net.index()),
        }
    };
    for &pi in netlist.inputs() {
        out.push_str(&format!("INPUT({})\n", signal_name(pi)));
    }
    for &po in netlist.outputs() {
        out.push_str(&format!("OUTPUT({})\n", signal_name(po)));
    }
    out.push('\n');
    for g in order {
        let gate = netlist.gate(g);
        let cell = match gate.kind() {
            GateKind::Inv => "NOT".to_owned(),
            GateKind::Buf => "BUFF".to_owned(),
            GateKind::Nand(_) | GateKind::WideNand(_) => "NAND".to_owned(),
            GateKind::Nor(_) | GateKind::WideNor(_) => "NOR".to_owned(),
            GateKind::And(_) => "AND".to_owned(),
            GateKind::Or(_) => "OR".to_owned(),
            GateKind::Xor2 => "XOR".to_owned(),
            GateKind::Xnor2 => "XNOR".to_owned(),
            // Complex gates do not exist in .bench; emit as a comment-safe
            // NAND-equivalent name so round-trips fail loudly rather than
            // silently: we choose to error instead.
            GateKind::Aoi21 | GateKind::Aoi22 | GateKind::Oai21 | GateKind::Oai22 => {
                return Err(CircuitError::UnsupportedCell {
                    line: 0,
                    cell: gate.kind().name(),
                })
            }
        };
        let args: Vec<String> = gate.inputs().iter().map(|&n| signal_name(n)).collect();
        out.push_str(&format!(
            "{} = {}({})\n",
            signal_name(gate.output()),
            cell,
            args.join(", ")
        ));
    }
    Ok(out)
}

/// The real ISCAS-85 circuit c17 (six NAND2 gates), embedded for tests and
/// examples.
pub const C17_BENCH: &str = "\
# c17 — smallest ISCAS-85 benchmark
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
OUTPUT(22)
OUTPUT(23)

10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_c17() {
        let n = parse_bench("c17", C17_BENCH).unwrap();
        assert_eq!(n.num_gates(), 6);
        assert_eq!(n.inputs().len(), 5);
        assert_eq!(n.outputs().len(), 2);
        assert!(n.is_primitive());
        n.validate().unwrap();
    }

    #[test]
    fn roundtrip_c17() {
        let n = parse_bench("c17", C17_BENCH).unwrap();
        let text = write_bench(&n).unwrap();
        let n2 = parse_bench("c17rt", &text).unwrap();
        assert_eq!(n2.num_gates(), n.num_gates());
        assert_eq!(n2.inputs().len(), n.inputs().len());
        assert_eq!(n2.outputs().len(), n.outputs().len());
    }

    #[test]
    fn out_of_order_definitions() {
        let text = "\
INPUT(a)
OUTPUT(y)
y = NOT(m)
m = NAND(a, a)
";
        let n = parse_bench("ooo", text).unwrap();
        assert_eq!(n.num_gates(), 2);
    }

    #[test]
    fn dff_is_rejected() {
        let text = "INPUT(a)\nOUTPUT(q)\nq = DFF(a)\n";
        assert!(matches!(
            parse_bench("seq", text),
            Err(CircuitError::UnsupportedCell { .. })
        ));
    }

    #[test]
    fn undefined_signal_is_reported() {
        let text = "INPUT(a)\nOUTPUT(y)\ny = NAND(a, ghost)\n";
        assert!(matches!(
            parse_bench("ghost", text),
            Err(CircuitError::UnknownSignal { name }) if name == "ghost"
        ));
    }

    #[test]
    fn malformed_line_is_reported_with_position() {
        let text = "INPUT(a)\nthis is not a gate\n";
        match parse_bench("bad", text) {
            Err(CircuitError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    /// A `)` only before the `(` is a missing `)`, not a reversed
    /// argument range.
    #[test]
    fn close_paren_before_open_is_a_parse_error() {
        let text = "INPUT(a)\ny = NAND) a, a(\n";
        match parse_bench("bad", text) {
            Err(CircuitError::Parse { line, message }) => {
                assert_eq!(line, 2);
                assert!(message.contains("missing `)`"), "{message}");
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "\
# header comment

INPUT(a)   # trailing comment
OUTPUT(y)
y = NOT(a)
";
        let n = parse_bench("cmt", text).unwrap();
        assert_eq!(n.num_gates(), 1);
    }

    #[test]
    fn wide_gates_parse_and_expand() {
        let text = "\
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
INPUT(e)
OUTPUT(y)
y = NAND(a, b, c, d, e)
";
        let n = parse_bench("wide", text).unwrap();
        let p = n.expand_to_primitives().unwrap();
        assert!(p.is_primitive());
    }

    /// Leftover definitions report the first one's first missing argument,
    /// and a signal defined twice is a line-numbered parse error.
    #[test]
    fn unresolved_and_duplicate_definitions_are_reported() {
        let cycle = "INPUT(a)\nOUTPUT(y)\ny = NAND(a, x)\nx = NOT(y)\nz = NOT(ghost)\n";
        assert!(matches!(
            parse_bench("cycle", cycle),
            Err(CircuitError::UnknownSignal { name }) if name == "x"
        ));
        for (text, line) in [
            ("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\ny = NOT(a)\n", 4),
            ("INPUT(a)\nOUTPUT(a)\na = NOT(a)\n", 3),
            ("y = NOT(a)\nINPUT(a)\nINPUT(y)\n", 3),
            ("INPUT(a)\nINPUT(a)\n", 2),
        ] {
            match parse_bench("dup", text) {
                Err(CircuitError::Parse { line: at, message }) => {
                    assert_eq!(at, line, "{text:?}");
                    assert!(message.contains("defined twice"), "{message}");
                }
                other => panic!("{text:?}: expected a parse error, got {other:?}"),
            }
        }
    }
}
