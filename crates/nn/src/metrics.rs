//! Classification metrics beyond top-1 accuracy: confusion matrices and
//! per-class accuracy, used by the experiment harnesses to inspect *where*
//! SC error hurts.

/// A square confusion matrix: `counts[actual][predicted]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfusionMatrix {
    classes: usize,
    counts: Vec<u32>,
}

impl ConfusionMatrix {
    /// An empty matrix for `classes` classes.
    pub fn new(classes: usize) -> Self {
        ConfusionMatrix {
            classes,
            counts: vec![0; classes * classes],
        }
    }

    /// Builds a matrix from paired `(prediction, label)` sequences.
    ///
    /// # Panics
    ///
    /// Panics if the sequences have different lengths or contain
    /// out-of-range classes.
    pub fn from_pairs(classes: usize, predictions: &[usize], labels: &[usize]) -> Self {
        assert_eq!(predictions.len(), labels.len(), "paired sequences required");
        let mut m = ConfusionMatrix::new(classes);
        for (&p, &l) in predictions.iter().zip(labels) {
            m.record(l, p);
        }
        m
    }

    /// Records one observation.
    ///
    /// # Panics
    ///
    /// Panics if either class is out of range.
    pub fn record(&mut self, actual: usize, predicted: usize) {
        assert!(actual < self.classes && predicted < self.classes);
        self.counts[actual * self.classes + predicted] += 1;
    }

    /// Count at `(actual, predicted)`.
    pub fn count(&self, actual: usize, predicted: usize) -> u32 {
        self.counts[actual * self.classes + predicted]
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Total observations.
    pub fn total(&self) -> u32 {
        self.counts.iter().sum()
    }

    /// Overall accuracy (diagonal mass / total), 0 when empty.
    pub fn accuracy(&self) -> f32 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let diag: u32 = (0..self.classes).map(|c| self.count(c, c)).sum();
        diag as f32 / total as f32
    }

    /// Per-class recall (diagonal / row sum); 0 for unobserved classes.
    pub fn per_class_recall(&self) -> Vec<f32> {
        (0..self.classes)
            .map(|c| {
                let row: u32 = (0..self.classes).map(|p| self.count(c, p)).sum();
                if row == 0 {
                    0.0
                } else {
                    self.count(c, c) as f32 / row as f32
                }
            })
            .collect()
    }

    /// The most-confused off-diagonal pair `(actual, predicted, count)`,
    /// or `None` if there are no errors.
    pub fn worst_confusion(&self) -> Option<(usize, usize, u32)> {
        let mut best = None;
        for a in 0..self.classes {
            for p in 0..self.classes {
                if a != p && self.count(a, p) > 0 {
                    let c = self.count(a, p);
                    if best.is_none_or(|(_, _, bc)| c > bc) {
                        best = Some((a, p, c));
                    }
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_and_recall_from_pairs() {
        let predictions = [0, 1, 1, 2, 2, 2];
        let labels = [0, 1, 2, 2, 2, 0];
        let m = ConfusionMatrix::from_pairs(3, &predictions, &labels);
        assert_eq!(m.total(), 6);
        // Correct: (0,0), (1,1), (2,2)×2 → 4/6.
        assert!((m.accuracy() - 4.0 / 6.0).abs() < 1e-6);
        let recall = m.per_class_recall();
        assert!((recall[0] - 0.5).abs() < 1e-6); // 1 of 2 class-0 right
        assert!((recall[1] - 1.0).abs() < 1e-6);
        assert!((recall[2] - 2.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn worst_confusion_finds_biggest_error() {
        let mut m = ConfusionMatrix::new(3);
        m.record(0, 1);
        m.record(0, 1);
        m.record(2, 0);
        assert_eq!(m.worst_confusion(), Some((0, 1, 2)));
    }

    #[test]
    fn empty_matrix_is_safe() {
        let m = ConfusionMatrix::new(4);
        assert_eq!(m.accuracy(), 0.0);
        assert_eq!(m.worst_confusion(), None);
        assert!(m.per_class_recall().iter().all(|&r| r == 0.0));
        assert_eq!(m.classes(), 4);
    }

    #[test]
    #[should_panic(expected = "paired sequences")]
    fn from_pairs_validates_lengths() {
        let _ = ConfusionMatrix::from_pairs(2, &[0], &[]);
    }
}
