-- Grouped by a mutable dimension attribute: under tight contracts
-- `product.brand` is the one product column a source may update, so a
-- rename moves the product's facts from one group to another — the
-- dimension-delta shape (DESIGN.md §5). The analyzer has nothing to flag:
-- `brand` is in no condition, so the update is not exposed.
CREATE VIEW brand_sales AS
SELECT product.brand, SUM(price) AS Revenue, COUNT(*) AS N
FROM sale, product
WHERE sale.productid = product.id
GROUP BY product.brand;
