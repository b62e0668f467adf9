//! Hostile input for PMML: a seeded corpus of documents — every model
//! family the crate writes, and one laid out by hand as another producer
//! would — each cut at every byte and with one bit flipped at every
//! byte, through `PmmlDocument::from_xml` and, for what parses,
//! `Evaluator::from_document`. Every input must give a document and an
//! evaluator or a typed error — never a panic. Dependency-free: the
//! damage is drawn from a seeded SplitMix64.

use pmml::{
    ClusteringModel, Evaluator, MiningFunction, NormalizationMethod, PmmlDocument, PmmlModel,
    RegressionModel,
};

/// SplitMix64: a seeded stream of draws with no dependency.
struct Draws(u64);

impl Draws {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn float(&mut self) -> f64 {
        (self.below(8_000) as f64 - 4_000.0) / 16.0
    }
}

const EXTERNAL: &str = r#"<?xml version="1.0" encoding="UTF-8"?>
<PMML version="4.1" xmlns="http://www.dmg.org/PMML-4_1">
  <Header description="external producer"><Application name="SAS-like"/></Header>
  <DataDictionary numberOfFields="3">
    <DataField name="age" optype="continuous" dataType="double"/>
    <DataField name="income" optype="continuous" dataType="double"/>
    <DataField name="risk" optype="continuous" dataType="double"/>
  </DataDictionary>
  <RegressionModel modelName="risk" functionName="regression" normalizationMethod="none">
    <MiningSchema>
      <MiningField name="age" usageType="active"/>
      <MiningField name="income" usageType="active"/>
      <MiningField name="risk" usageType="predicted"/>
    </MiningSchema>
    <RegressionTable intercept="0.5">
      <NumericPredictor name="age" coefficient="0.02"/>
      <NumericPredictor name="income" coefficient="-1e-3"/>
    </RegressionTable>
  </RegressionModel>
</PMML>"#;

fn corpus(draws: &mut Draws) -> Vec<String> {
    let regression = |draws: &mut Draws, function, normalization| {
        let coefficients = (0..1 + draws.below(3))
            .map(|i| (format!("f{i}"), draws.float()))
            .collect();
        PmmlModel::Regression(RegressionModel {
            function,
            normalization,
            intercept: draws.float(),
            coefficients,
            target: "y".into(),
        })
    };
    let linear = regression(draws, MiningFunction::Regression, NormalizationMethod::None);
    let logistic = regression(
        draws,
        MiningFunction::Classification,
        NormalizationMethod::Logit,
    );
    let kmeans = PmmlModel::Clustering(ClusteringModel {
        fields: vec!["a".into(), "b&c".into()],
        clusters: (0..2 + draws.below(2))
            .map(|k| (k.to_string(), vec![draws.float(), draws.float()]))
            .collect(),
    });
    let written = [linear, logistic, kmeans]
        .into_iter()
        .map(|model| PmmlDocument::new("m<1>", "sparklet \"mllib\"", model).to_xml());
    written.chain([EXTERNAL.to_string()]).collect()
}

/// Every cut of `text`, and one bit flipped at every byte of it.
fn damage(text: &str, draws: &mut Draws, mut each: impl FnMut(String, String)) {
    let bytes = text.as_bytes();
    for cut in 0..bytes.len() {
        let cut_text = String::from_utf8_lossy(&bytes[..cut]).into_owned();
        each(cut_text, format!("cut at {cut}"));
    }
    for at in 0..bytes.len() {
        let bit = 1u8 << draws.below(8);
        let mut flipped = bytes.to_vec();
        flipped[at] ^= bit;
        let flipped = String::from_utf8_lossy(&flipped).into_owned();
        each(flipped, format!("byte {at} ^ {bit:#x}"));
    }
}

#[test]
fn damaged_documents_parse_or_fail_typed() {
    let mut draws = Draws(0x9A11);
    let documents = corpus(&mut draws);
    let (mut inputs, mut evaluated) = (0, 0);
    for xml in &documents {
        let doc = PmmlDocument::from_xml(xml).unwrap_or_else(|e| panic!("corpus: {e}\n{xml}"));
        Evaluator::from_document(&doc).unwrap_or_else(|e| panic!("corpus: {e}\n{xml}"));
        damage(xml, &mut draws, |text, what| {
            inputs += 1;
            let outcome = PmmlDocument::from_xml(&text)
                .and_then(|doc| Evaluator::from_document(&doc).map(|_| doc));
            match outcome {
                Ok(_) => evaluated += 1,
                Err(e) => assert!(!e.to_string().is_empty(), "{what}: an empty error"),
            }
        });
    }
    // Both ends are reached: a flipped digit or name still loads, most
    // damage to the markup does not.
    assert!(
        evaluated > 0 && evaluated < inputs,
        "{evaluated} of {inputs} evaluated"
    );
}
