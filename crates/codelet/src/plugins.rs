//! The canned Data Conditioning plug-ins from paper §II.F.
//!
//! "Useful examples of DC Plug-ins include data markup, annotation,
//! sampling, bounding box, unit conversion, etc." Each function here
//! returns a ready-to-compile source string, parameterized where the
//! reader-side caller would parameterize it (field names, thresholds,
//! sampling strides). FlexIO ships these strings to whichever address
//! space the plug-in should run in.

/// Keep every `stride`-th element of `field` (paper: "sampling").
pub fn sampling(field: &str, stride: usize) -> String {
    format!(
        r#"// DC plug-in: sampling
let v = get_f64("{field}");
let out = array();
for i in 0..len(v) {{
    if i % {stride} == 0 {{ push(out, v[i]); }}
}}
emit_f64("{field}", out);
emit_int("dc_sampled_stride", {stride});
"#
    )
}

/// Keep elements of `field` inside `[lo, hi]` (paper: "bounding box" /
/// the GTS velocity range query is this with the query's bounds).
pub fn bounding_box(field: &str, lo: f64, hi: f64) -> String {
    format!(
        r#"// DC plug-in: bounding box / range selection
let v = get_f64("{field}");
let out = array();
for i in 0..len(v) {{
    if v[i] >= {lo} && v[i] <= {hi} {{ push(out, v[i]); }}
}}
emit_f64("{field}", out);
emit_int("dc_selected", len(out));
"#
    )
}

/// Multiply every element of `field` by `factor` (paper: "unit
/// conversion").
pub fn unit_conversion(field: &str, factor: f64) -> String {
    format!(
        r#"// DC plug-in: unit conversion
let v = get_f64("{field}");
let out = array();
for i in 0..len(v) {{ push(out, v[i] * {factor}); }}
emit_f64("{field}", out);
"#
    )
}

/// Pass `field` through and attach provenance markup (paper: "data
/// markup, annotation").
pub fn annotate(field: &str, tag: &str) -> String {
    format!(
        r#"// DC plug-in: annotation / data markup
let v = get_f64("{field}");
emit_f64("{field}", v);
emit_str("dc_annotation", "{tag}");
emit_int("dc_count", len(v));
emit_float("dc_sum", sum(v));
"#
    )
}

/// Reduce `field` to summary statistics only — an aggressive data
/// reduction conditioning step (min/max/mean), dropping the raw data.
pub fn summarize(field: &str) -> String {
    format!(
        r#"// DC plug-in: summary statistics reduction
let v = get_f64("{field}");
let n = len(v);
if n == 0 {{
    emit_int("dc_count", 0);
    return;
}}
let lo = v[0];
let hi = v[0];
for i in 1..n {{
    lo = min(lo, v[i]);
    hi = max(hi, v[i]);
}}
emit_int("dc_count", n);
emit_float("dc_min", lo);
emit_float("dc_max", hi);
emit_float("dc_mean", sum(v) / float(n));
"#
    )
}

#[cfg(test)]
mod tests {
    use crate::Codelet;
    use evpath::{FieldValue, Record};

    fn particles() -> Record {
        Record::new()
            .with("velocity", FieldValue::from(vec![0.1, 0.9, 1.5, 2.4, 3.0, 0.5, 1.1, 2.0]))
    }

    #[test]
    fn sampling_keeps_every_kth() {
        let c = Codelet::compile(&super::sampling("velocity", 3)).unwrap();
        let out = c.run(&particles()).unwrap();
        assert_eq!(out.get_f64_array("velocity"), Some(&[0.1, 2.4, 1.1][..]));
        assert_eq!(out.get_i64("dc_sampled_stride"), Some(3));
    }

    #[test]
    fn bounding_box_filters_range() {
        let c = Codelet::compile(&super::bounding_box("velocity", 1.0, 2.4)).unwrap();
        let out = c.run(&particles()).unwrap();
        assert_eq!(out.get_f64_array("velocity"), Some(&[1.5, 2.4, 1.1, 2.0][..]));
        assert_eq!(out.get_i64("dc_selected"), Some(4));
    }

    #[test]
    fn unit_conversion_scales() {
        let c = Codelet::compile(&super::unit_conversion("velocity", 100.0)).unwrap();
        let out = c.run(&particles()).unwrap();
        let vals = out.get_f64_array("velocity").unwrap();
        assert_eq!(vals[0], 10.0);
        assert_eq!(vals[4], 300.0);
    }

    #[test]
    fn annotate_adds_markup_preserving_data() {
        let c = Codelet::compile(&super::annotate("velocity", "gts-run-42")).unwrap();
        let out = c.run(&particles()).unwrap();
        assert_eq!(out.get_str("dc_annotation"), Some("gts-run-42"));
        assert_eq!(out.get_i64("dc_count"), Some(8));
        assert_eq!(out.get_f64_array("velocity").unwrap().len(), 8);
    }

    #[test]
    fn summarize_reduces_to_stats() {
        let c = Codelet::compile(&super::summarize("velocity")).unwrap();
        let out = c.run(&particles()).unwrap();
        assert_eq!(out.get_i64("dc_count"), Some(8));
        assert_eq!(out.get_f64("dc_min"), Some(0.1));
        assert_eq!(out.get_f64("dc_max"), Some(3.0));
        assert!((out.get_f64("dc_mean").unwrap() - 1.4375).abs() < 1e-12);
        assert!(out.get("velocity").is_none(), "raw data must be dropped");
    }

    #[test]
    fn summarize_empty_input() {
        let input = Record::new().with("velocity", FieldValue::from(Vec::<f64>::new()));
        let c = Codelet::compile(&super::summarize("velocity")).unwrap();
        let out = c.run(&input).unwrap();
        assert_eq!(out.get_i64("dc_count"), Some(0));
        assert!(out.get("dc_min").is_none());
    }

    #[test]
    fn plugins_survive_source_round_trip() {
        // Migration ships the *source*; recompiling elsewhere must agree.
        let src = super::bounding_box("velocity", 0.5, 2.0);
        let original = Codelet::compile(&src).unwrap();
        let migrated = Codelet::compile(original.source()).unwrap();
        let a = original.run(&particles()).unwrap();
        let b = migrated.run(&particles()).unwrap();
        assert_eq!(a, b);
    }
}
