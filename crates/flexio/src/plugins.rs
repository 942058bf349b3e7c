//! Data Conditioning plug-in management (paper §II.F).
//!
//! Plug-ins are created on the **reader** side, shipped to whichever
//! address space should run them, built there, and executed on each
//! matching chunk as it moves. "They can be executed within the address
//! space of either the simulation or analytics, and they can be migrated
//! across address spaces at runtime." A plug-in's body is either codelet
//! source text, compiled for the codelet VM (user plug-ins), or a typed
//! filter expression run by the query tier's vectorized kernel (what a
//! pushed-down query filter is).

use std::collections::HashMap;
use std::sync::Mutex;

use codelet::Codelet;
use evpath::{FieldValue, PackedDtype, Record};
use flexio_query::{Expr, FilterKernel, Q_ROWS_IN};

use adios::{ArrayData, LocalBlock, ScalarValue, VarValue};

pub use flexio_query::PluginBody;

/// Which address space runs the plug-in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PluginPlacement {
    /// In the simulation's (writer's) address space — conditioning data
    /// *before* it crosses the transport (e.g. selection shrinks traffic).
    WriterSide,
    /// In the analytics' (reader's) address space.
    ReaderSide,
}

/// A deployable plug-in: the variable it conditions, its body, and
/// where it should run.
#[derive(Debug, Clone, PartialEq)]
pub struct PluginSpec {
    /// Variable name the plug-in applies to.
    pub var: String,
    /// The body (what actually migrates): codelet source or a typed
    /// filter.
    pub source: PluginBody,
    /// Current placement.
    pub placement: PluginPlacement,
}

impl PluginSpec {
    /// Encode for the deployment channel. A codelet body travels as its
    /// source text; a filter body as its postfix word list over the one
    /// column `var`.
    pub fn to_record(&self) -> Record {
        let (field, body) = match &self.source {
            PluginBody::Codelet(source) => ("source", FieldValue::Str(source.as_str().into())),
            PluginBody::Filter(expr) => {
                ("filter", FieldValue::from(expr.to_postfix(std::slice::from_ref(&self.var))))
            }
        };
        Record::new().with("var", FieldValue::Str(self.var.as_str().into())).with(field, body).with(
            "placement",
            FieldValue::U64(match self.placement {
                PluginPlacement::WriterSide => 0,
                PluginPlacement::ReaderSide => 1,
            }),
        )
    }

    /// Decode from the deployment channel (`None` on anything
    /// malformed, a filter that does not type-check included).
    pub fn from_record(r: &Record) -> Option<PluginSpec> {
        let var = r.get_str("var")?.to_string();
        // A long filter may be a view off an 8-byte boundary: copy it out.
        let source = match r.get_packed("filter").filter(|p| p.dtype() == PackedDtype::U64) {
            Some(words) => PluginBody::Filter(Expr::from_postfix(
                &words.to_u64_vec(),
                std::slice::from_ref(&var),
            )?),
            None => PluginBody::Codelet(r.get_str("source")?.to_string()),
        };
        Some(PluginSpec {
            var,
            source,
            placement: match r.get_u64("placement")? {
                0 => PluginPlacement::WriterSide,
                1 => PluginPlacement::ReaderSide,
                _ => return None,
            },
        })
    }
}

/// A built plug-in installed in one address space.
#[derive(Debug)]
pub struct InstalledPlugin {
    /// The spec it was built from.
    pub spec: PluginSpec,
    engine: Engine,
}

#[derive(Debug)]
enum Engine {
    Codelet(Codelet),
    /// Locked only for the duration of one `apply`: the kernel reuses
    /// its mask and scratch from chunk to chunk.
    Filter(Mutex<FilterKernel>),
}

/// (Re)build `specs` in one address space: each goes into the table for
/// its placement, when this side keeps one. A body that fails to build is
/// dropped with a note — a bad plug-in must not take down the simulation.
pub(crate) fn install_all<'t>(
    specs: &[PluginSpec],
    mut writer_side: Option<&'t mut HashMap<String, InstalledPlugin>>,
    mut reader_side: Option<&'t mut HashMap<String, InstalledPlugin>>,
) {
    [&mut writer_side, &mut reader_side].into_iter().flatten().for_each(|table| table.clear());
    for spec in specs {
        let table = match spec.placement {
            PluginPlacement::WriterSide => &mut writer_side,
            PluginPlacement::ReaderSide => &mut reader_side,
        };
        let Some(table) = table else { continue };
        match InstalledPlugin::install(spec.clone()) {
            Ok(plugin) => drop(table.insert(spec.var.clone(), plugin)),
            Err(e) => eprintln!("flexio: dropping plug-in for `{}`: {e}", spec.var),
        }
    }
}

/// Marker extra attached to every conditioned chunk so the receiving side
/// can tell whether conditioning already happened upstream. This is what
/// makes plug-in **migration seamless**: during the handover step the
/// reader applies its local fallback copy only when the marker is absent,
/// so data is conditioned exactly once no matter which side ran first.
pub const DC_APPLIED_MARKER: &str = "dc_applied";

/// Error applying a plug-in to a chunk.
#[derive(Debug, Clone, PartialEq)]
pub enum PluginError {
    /// The body failed to build at install time (codelet compile error,
    /// ill-typed filter).
    Compile(String),
    /// Runtime failure (budget, type error, ...).
    Run(String),
    /// The chunk is not one this plug-in conditions: scalars never are,
    /// and codelet bodies are restricted to f64 array variables (the
    /// process-group pattern the paper's GTS analytics uses).
    UnsupportedChunk(&'static str),
}

impl std::fmt::Display for PluginError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PluginError::Compile(m) => write!(f, "plug-in failed to compile: {m}"),
            PluginError::Run(m) => write!(f, "plug-in failed at runtime: {m}"),
            PluginError::UnsupportedChunk(m) => write!(f, "unsupported chunk: {m}"),
        }
    }
}

impl std::error::Error for PluginError {}

impl InstalledPlugin {
    /// Build the body (the "install" step — this is what dynamic
    /// deployment does on arrival in the target address space).
    pub fn install(spec: PluginSpec) -> Result<InstalledPlugin, PluginError> {
        let engine = match &spec.source {
            PluginBody::Codelet(source) => Engine::Codelet(
                Codelet::compile(source).map_err(|e| PluginError::Compile(e.to_string()))?,
            ),
            PluginBody::Filter(expr) => Engine::Filter(Mutex::new(
                FilterKernel::new(expr, std::slice::from_ref(&spec.var))
                    .map_err(|e| PluginError::Compile(e.to_string()))?,
            )),
        };
        Ok(InstalledPlugin { spec, engine })
    }

    /// Condition one chunk of the plug-in's variable. A codelet sees the
    /// chunk's data under the variable's name; its emitted field of that
    /// name becomes the new chunk data, and any extra emitted fields come
    /// back as metadata `(name, value)` pairs. A filter keeps the
    /// elements its predicate accepts and reports the pre-filter count
    /// as the [`Q_ROWS_IN`] extra.
    pub fn apply(
        &self,
        value: &VarValue,
    ) -> Result<(VarValue, Vec<(String, VarValue)>), PluginError> {
        let VarValue::Block(block) = value else {
            return Err(PluginError::UnsupportedChunk("scalars are not conditioned"));
        };
        let marker = (DC_APPLIED_MARKER.to_string(), VarValue::Scalar(ScalarValue::U64(1)));
        let codelet = match &self.engine {
            Engine::Codelet(codelet) => codelet,
            Engine::Filter(kernel) => {
                // Reads the chunk where it lies (packed wire views
                // included); only the survivors are materialized.
                let survivors = kernel.lock().unwrap().filter_column(&block.data);
                let rows_in = VarValue::Scalar(ScalarValue::I64(block.data.len() as i64));
                return Ok((flat_block(survivors), vec![(Q_ROWS_IN.to_string(), rows_in), marker]));
            }
        };
        // A packed wire view goes to the codelet as it is (an `Arc` bump):
        // its `get_f64` makes the one bulk copy the VM needs.
        let data = match &block.data {
            ArrayData::F64(data) => FieldValue::from(data.clone()),
            ArrayData::Packed(p) if p.dtype() == PackedDtype::F64 => FieldValue::Packed(p.clone()),
            _ => return Err(PluginError::UnsupportedChunk("only f64 arrays supported")),
        };
        let input = Record::new().with(&self.spec.var, data);
        let output = codelet.run(&input).map_err(|e| PluginError::Run(e.to_string()))?;

        let mut new_value = None;
        let mut extras = Vec::new();
        for (name, field) in output.iter() {
            let as_value = match field {
                FieldValue::Packed(a) if a.dtype() == PackedDtype::F64 => {
                    flat_block(ArrayData::F64(a.to_f64_vec()))
                }
                FieldValue::I64(v) => VarValue::Scalar(ScalarValue::I64(*v)),
                FieldValue::U64(v) => VarValue::Scalar(ScalarValue::U64(*v)),
                FieldValue::F64(v) => VarValue::Scalar(ScalarValue::F64(*v)),
                FieldValue::Str(s) => VarValue::Scalar(ScalarValue::Str(s.to_string())),
                _ => continue,
            };
            if name == self.spec.var {
                new_value = Some(as_value);
            } else {
                extras.push((name.to_string(), as_value));
            }
        }
        // Stamp the marker so the peer side never double-conditions.
        extras.push(marker);
        // A plug-in that emits nothing for the variable drops it entirely
        // (maximal reduction, e.g. `summarize`): represent as empty array.
        let new_value = new_value.unwrap_or_else(|| flat_block(ArrayData::F64(Vec::new())));
        Ok((new_value, extras))
    }
}

/// A conditioned chunk: whatever survived, as a standalone 1-D block.
fn flat_block(data: ArrayData) -> VarValue {
    let n = data.len() as u64;
    VarValue::Block(
        LocalBlock { global_shape: vec![n], offset: vec![0], count: vec![n], data }.validated(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn velocity_chunk() -> VarValue {
        VarValue::Block(
            LocalBlock {
                global_shape: vec![6],
                offset: vec![0],
                count: vec![6],
                data: ArrayData::F64(vec![0.1, 1.5, 2.9, 0.4, 1.1, 3.3]),
            }
            .validated(),
        )
    }

    #[test]
    fn spec_roundtrip() {
        let spec = PluginSpec {
            var: "velocity".into(),
            source: codelet::plugins::sampling("velocity", 2).into(),
            placement: PluginPlacement::WriterSide,
        };
        assert_eq!(PluginSpec::from_record(&spec.to_record()), Some(spec.clone()));
    }

    /// A filter body of at least `ZERO_COPY_MIN_BYTES` decodes as a view of
    /// the receive buffer; whichever of the eight residues it starts on,
    /// the spec parses back.
    #[test]
    fn a_bulk_filter_body_parses_from_a_view_at_any_alignment() {
        for name_len in 1..=8 {
            let var = "v".repeat(name_len);
            let clause = |i: i32| Expr::col(&var).gt(Expr::lit(f64::from(i)));
            let filter = (1..100).fold(clause(0), |e, i| e.or(clause(i)));
            let spec = PluginSpec {
                var: var.clone(),
                source: PluginBody::Filter(filter),
                placement: PluginPlacement::WriterSide,
            };
            let wire = std::sync::Arc::new(spec.to_record().encode());
            let r = Record::decode_shared(&wire).unwrap();
            assert!(r.get_packed("filter").is_some_and(evpath::PackedArray::is_view));
            assert_eq!(PluginSpec::from_record(&r), Some(spec), "var {var}");
        }
    }

    /// The typed filter replaced a generated codelet; on the wire nothing
    /// may tell them apart — same block, same extras, same order.
    #[test]
    fn filter_body_conditions_exactly_like_the_codelet_it_replaced() {
        let generated = r#"let v = get_f64("velocity");
let n = len(v);
let out = array();
for i in 0..n {
    let x = v[i];
    if (x < 1.2) { push(out, x); }
}
emit_f64("velocity", out);
emit_int("q_rows_in", n);
"#;
        let install = |source: PluginBody| {
            let placement = PluginPlacement::WriterSide;
            InstalledPlugin::install(PluginSpec { var: "velocity".into(), source, placement })
                .unwrap()
        };
        let filter = install(PluginBody::Filter(Expr::col("velocity").lt(Expr::lit(1.2))));
        let (value, extras) = filter.apply(&velocity_chunk()).unwrap();
        assert_eq!(
            (value.clone(), extras.clone()),
            install(generated.into()).apply(&velocity_chunk()).unwrap()
        );
        let VarValue::Block(b) = value else { panic!() };
        assert_eq!(b.data, ArrayData::F64(vec![0.1, 0.4, 1.1]));
        let names: Vec<&str> = extras.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, [Q_ROWS_IN, DC_APPLIED_MARKER]);
        assert_eq!(extras[0].1, VarValue::Scalar(ScalarValue::I64(6)));
    }

    #[test]
    fn ill_typed_filter_fails_at_install() {
        let spec = PluginSpec {
            var: "v".into(),
            source: PluginBody::Filter(Expr::col("other").lt(Expr::lit(1.0))),
            placement: PluginPlacement::WriterSide,
        };
        assert!(matches!(InstalledPlugin::install(spec), Err(PluginError::Compile(_))));
    }

    #[test]
    fn bounding_box_plugin_filters_chunk() {
        let spec = PluginSpec {
            var: "velocity".into(),
            source: codelet::plugins::bounding_box("velocity", 1.0, 3.0).into(),
            placement: PluginPlacement::WriterSide,
        };
        let p = InstalledPlugin::install(spec).unwrap();
        let (value, extras) = p.apply(&velocity_chunk()).unwrap();
        let VarValue::Block(b) = value else { panic!() };
        assert_eq!(b.data.as_f64(), &[1.5, 2.9, 1.1]);
        assert!(extras.iter().any(|(n, v)| n == "dc_selected"
            && matches!(v, VarValue::Scalar(adios::ScalarValue::I64(3)))));
    }

    #[test]
    fn summarize_plugin_drops_raw_data() {
        let spec = PluginSpec {
            var: "velocity".into(),
            source: codelet::plugins::summarize("velocity").into(),
            placement: PluginPlacement::WriterSide,
        };
        let p = InstalledPlugin::install(spec).unwrap();
        let (value, extras) = p.apply(&velocity_chunk()).unwrap();
        let VarValue::Block(b) = value else { panic!() };
        assert_eq!(b.num_elements(), 0, "raw data replaced by empty block");
        assert!(extras.iter().any(|(n, _)| n == "dc_mean"));
    }

    #[test]
    fn bad_source_fails_at_install_not_apply() {
        let spec = PluginSpec {
            var: "v".into(),
            source: "let x = ;".into(),
            placement: PluginPlacement::ReaderSide,
        };
        assert!(matches!(InstalledPlugin::install(spec), Err(PluginError::Compile(_))));
    }

    #[test]
    fn scalar_chunks_rejected() {
        let spec = PluginSpec {
            var: "v".into(),
            source: codelet::plugins::annotate("v", "t").into(),
            placement: PluginPlacement::ReaderSide,
        };
        let p = InstalledPlugin::install(spec).unwrap();
        let err = p.apply(&VarValue::Scalar(adios::ScalarValue::U64(1)));
        assert!(matches!(err, Err(PluginError::UnsupportedChunk(_))));
    }
}
