CREATE VIEW brand_sales AS
SELECT product.brand, SUM(price) AS Revenue, COUNT(*) AS N
FROM sale, product WHERE sale.productid = product.id GROUP BY product.brand
